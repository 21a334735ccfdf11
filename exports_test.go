package futurelocality_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names exported identifiers of internal/ and of the facade
// that no other package's non-test code uses and that stay all the same,
// each with the reason. A key is "pkg.Name" or "pkg.Type.Method", pkg the
// import path without the module prefix ("futurelocality" for the facade).
var exportAllowlist = map[string]string{
	"internal/core.ReplayCheckEnv":       "the profile and experiments test mains set the variable it names; a _test.go file cannot export it to them",
	"internal/dag.MemoKeys":              "core's tests count the facts computed into a graph's memo with it; a _test.go file cannot export it to them",
	"internal/dag.ErrBadFormat":          "ReadBinary returns this sentinel; callers match it with errors.Is",
	"internal/dag.ErrDegree":             "Builder.Build returns this sentinel; callers match it with errors.Is",
	"internal/dag.ErrDisconnected":       "Builder.Build returns this sentinel; callers match it with errors.Is",
	"internal/dag.ErrEmpty":              "Builder.Build returns this sentinel; callers match it with errors.Is",
	"internal/dag.ErrForkChildren":       "Builder.Build returns this sentinel; callers match it with errors.Is",
	"internal/dag.ErrNotTopo":            "Builder.Build returns this sentinel; callers match it with errors.Is",
	"internal/dag.ErrRootFinal":          "Builder.Build returns this sentinel; callers match it with errors.Is",
	"internal/deque.Ptr.Cap":             "the runtime's deque-depth tests read a worker's ring capacity with it; a _test.go file cannot export it to them",
	"internal/runtime.ErrDoubleTouch":    "a second touch panics with this sentinel; callers match the recovered value with errors.Is",
	"internal/runtime.ErrNoFlight":       "DumpFlight, FlightEnvelope and FlightReport return this sentinel; callers match it with errors.Is",
	"internal/runtime.ErrNoProfile":      "ProfileReport returns this sentinel; callers match it with errors.Is",
	"internal/runtime.ErrProfileActive":  "StartProfile returns this sentinel; callers match it with errors.Is",
	"internal/runtime.PanicError":        "RunErr and WaitErr return a task's panic as one; callers match it with errors.As",
	"internal/runtime.PanicError.Unwrap": "errors.Is and errors.As call it through an interface the errors package does not name",
	"internal/sim.ErrStuck":              "Engine.Run returns this sentinel when the machine makes no progress; callers match it with errors.Is",
	"internal/sim.Result.Validate":       "the dag, graphs, figreg and adversary tests check every schedule they simulate with it; a _test.go file cannot export it to them",
	"internal/telemetry.Snapshot.Sub":    "the runtime's counter tests read a window as the difference of two snapshots; a _test.go file cannot export it to them",
}

// modulePath is go.mod's module line.
const modulePath = "futurelocality"

// facadeSample matches a facade name used in a README.md or doc.go sample.
var facadeSample = regexp.MustCompile(`\bfuturelocality\.([A-Z]\w*)`)

// modulePkg is one package of the module, parsed without its test files and
// type-checked.
type modulePkg struct {
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// TestEveryExportHasAUser fails on an exported package-level name or an
// exported method of an exported type, in internal/ or in the facade, that
// no non-test file of another package of the module uses (cmd/, examples/
// and bench/ count as users). A name also stays when a kept name's signature,
// type or exported fields mention it, when it is a constant of a kept type
// (one value of an enumeration), when it is a method that satisfies an
// interface, when it is a facade name a README.md or doc.go sample names, or
// when exportAllowlist gives a reason. Everything else is deleted,
// unexported or moved into a test file.
func TestEveryExportHasAUser(t *testing.T) {
	fset, pkgs := module(t)
	ex := exportGate(t, pkgs)

	var dead []string
	for _, obj := range ex.cands {
		if ex.kept[obj] {
			continue
		}
		pos := fset.Position(obj.Pos())
		dead = append(dead, filepath.ToSlash(pos.Filename)+": "+ex.key[obj])
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported, but no other package's non-test code uses it", d)
	}

	byKey := map[string]types.Object{}
	for _, obj := range ex.cands {
		byKey[ex.key[obj]] = obj
	}
	for k, reason := range exportAllowlist {
		obj, ok := byKey[k]
		switch {
		case reason == "":
			t.Errorf("allowlist entry %s gives no reason", k)
		case !ok:
			t.Errorf("allowlist entry %s names no exported identifier", k)
		case ex.used[obj]:
			t.Errorf("allowlist entry %s is not needed: another package uses it", k)
		}
	}
}

// TestEveryDeclIsReached fails on a package-level func, method, type, var or
// const of a non-test file that no chain of non-test code reaches from a
// root: a name TestEveryExportHasAUser keeps (its allowlist included), a main
// or an init, a blank var's initializer, or a method that satisfies an
// interface. A declaration reaches every name its source uses. What only a
// test reaches belongs in a _test.go file or nowhere.
func TestEveryDeclIsReached(t *testing.T) {
	fset, pkgs := module(t)
	ex := exportGate(t, pkgs)
	ifaces := interfaces(pkgs)

	refs := map[types.Object][]types.Object{} // the names each declaration uses
	judged := map[types.Object]string{}       // every declaration, by key
	var work []types.Object
	reached := map[types.Object]bool{}
	reach := func(obj types.Object) {
		if obj != nil && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	for obj := range ex.kept {
		reach(obj)
	}
	for _, p := range pkgs {
		rel := p.rel()
		uses := func(n ast.Node) []types.Object {
			var out []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
					out = append(out, origin(p.info.Uses[id]))
				}
				return true
			})
			return out
		}
		declare := func(obj types.Object, key string, n ast.Node, root bool) {
			refs[obj] = append(refs[obj], uses(n)...)
			if root || obj.Name() == "_" {
				reach(obj)
			} else {
				judged[obj] = key
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						declare(fn, rel+"."+fn.Name(), d, fn.Name() == "init" || fn.Name() == "main" && p.types.Name() == "main")
						continue
					}
					recv := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					declare(fn, rel+"."+recv.(*types.Named).Obj().Name()+"."+fn.Name(), d, satisfies(fn, ifaces))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(p.info.Defs[spec.Name], rel+"."+spec.Name.Name, spec, false)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								declare(p.info.Defs[id], rel+"."+id.Name, spec, false)
							}
						}
					}
				}
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range refs[obj] {
			reach(r)
		}
	}

	var dead []string
	for obj, key := range judged {
		if !reached[obj] {
			pos := fset.Position(obj.Pos())
			dead = append(dead, filepath.ToSlash(pos.Filename)+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is declared, but no non-test code reaches it from a main, an init, a kept export or an interface method", d)
	}
}

// exportFacts is what TestEveryExportHasAUser decides: the exported names it
// judges (cands, with their keys), the ones another package uses, and the
// ones it keeps.
type exportFacts struct {
	cands      []types.Object
	key        map[types.Object]string
	used, kept map[types.Object]bool
}

// exportGate computes the export gate's verdict over the loaded module.
func exportGate(t *testing.T, pkgs []*modulePkg) exportFacts {
	t.Helper()
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types {
				used[origin(obj)] = true
			}
		}
	}

	// The candidates: every exported name the gate judges.
	var cands []types.Object
	key := map[types.Object]string{}
	consts := map[types.Type][]types.Object{} // the exported constants of each type
	for _, p := range pkgs {
		rel := p.rel()
		if rel != modulePath && !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			cands = append(cands, obj)
			key[obj] = rel + "." + name
			if c, ok := obj.(*types.Const); ok {
				consts[c.Type()] = append(consts[c.Type()], c)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					cands = append(cands, m)
					key[m] = rel + "." + name + "." + m.Name()
				}
			}
		}
	}

	kept := map[types.Object]bool{}
	var work []types.Object
	keep := func(obj types.Object) {
		if obj != nil && !kept[obj] {
			kept[obj] = true
			work = append(work, obj)
		}
	}
	for obj := range used {
		keep(obj)
	}
	for _, obj := range cands {
		if _, ok := exportAllowlist[key[obj]]; ok {
			keep(obj)
		}
	}
	for _, doc := range []string{"README.md", "doc.go"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range facadeSample.FindAllStringSubmatch(string(raw), -1) {
			keep(pkgs[0].types.Scope().Lookup(m[1]))
		}
	}
	ifaces := interfaces(pkgs)
	for _, obj := range cands {
		if m, ok := obj.(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil && satisfies(m, ifaces) {
			keep(m)
		}
	}

	// A kept name keeps every name its type mentions.
	seen := map[types.Type]bool{}
	var mention func(types.Type)
	mention = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Alias:
			keep(typ.Obj())
			mention(typ.Rhs())
		case *types.Named:
			keep(typ.Obj())
			for _, c := range consts[typ] {
				keep(c)
			}
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				mention(typ.TypeArgs().At(i))
			}
			mention(typ.Underlying())
		case *types.Pointer:
			mention(typ.Elem())
		case *types.Slice:
			mention(typ.Elem())
		case *types.Array:
			mention(typ.Elem())
		case *types.Chan:
			mention(typ.Elem())
		case *types.Map:
			mention(typ.Key())
			mention(typ.Elem())
		case *types.Signature:
			mention(typ.Params())
			mention(typ.Results())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				mention(typ.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() {
					mention(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				mention(typ.Method(i).Type())
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		mention(obj.Type())
	}

	return exportFacts{cands: cands, key: key, used: used, kept: kept}
}

// loaded caches the module's one parse and type-check for every test that
// reads it.
var loaded struct {
	once sync.Once
	fset *token.FileSet
	pkgs []*modulePkg
}

// module returns the loaded module, loading it on the first call.
func module(t *testing.T) (*token.FileSet, []*modulePkg) {
	t.Helper()
	loaded.once.Do(func() { loaded.fset, loaded.pkgs = loadModule(t) })
	if loaded.pkgs == nil {
		t.Fatal("the module did not load (see the first test that loaded it)")
	}
	return loaded.fset, loaded.pkgs
}

// loadModule parses every package of the module without its test files, as
// the default build selects them, and type-checks them in dependency order, the facade first in the result.
func loadModule(t *testing.T) (*token.FileSet, []*modulePkg) {
	t.Helper()
	fset := token.NewFileSet()
	byPath := map[string]*modulePkg{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		// The default build's files only: a file for -tags invariants
		// redeclares what its counterpart declares.
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ip := modulePath
		if dir != "." {
			ip += "/" + dir
		}
		p := byPath[ip]
		if p == nil {
			p = &modulePkg{path: ip}
			byPath[ip] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	std := importer.Default()
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p.types, nil
		}
		return std.Import(path)
	})
	var order []*modulePkg
	state := map[*modulePkg]int{} // 1 visiting, 2 checked
	var visit func(p *modulePkg)
	visit = func(p *modulePkg) {
		switch state[p] {
		case 1:
			t.Fatalf("import cycle through %s", p.path)
		case 2:
			return
		}
		state[p] = 1
		for _, f := range p.files {
			for _, is := range f.Imports {
				if dep := byPath[strings.Trim(is.Path.Value, `"`)]; dep != nil {
					visit(dep)
				}
			}
		}
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		p.types = tp
		state[p] = 2
		order = append(order, p)
	}
	paths := make([]string, 0, len(byPath))
	for ip := range byPath {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		visit(byPath[ip])
	}
	facade := byPath[modulePath]
	out := []*modulePkg{facade}
	for _, p := range order {
		if p != facade {
			out = append(out, p)
		}
	}
	return fset, out
}

// rel is the package's key prefix: its import path without the module
// prefix, or modulePath for the facade.
func (p *modulePkg) rel() string {
	if p.path == modulePath {
		return modulePath
	}
	return strings.TrimPrefix(p.path, modulePath+"/")
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// interfaces lists every interface type the module declares or writes
// (a constraint's methods without its type terms) and every named interface
// of a package it imports, directly or not, with the predeclared error.
func interfaces(pkgs []*modulePkg) []*types.Interface {
	var out []*types.Interface
	add := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		if !it.IsMethodSet() {
			// A constraint with type terms: a type argument satisfies its
			// methods, which alone make the interface compared with.
			ms := make([]*types.Func, it.NumMethods())
			for i := range ms {
				m := it.Method(i)
				sig := m.Type().(*types.Signature)
				ms[i] = types.NewFunc(m.Pos(), m.Pkg(), m.Name(),
					types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic()))
			}
			it = types.NewInterfaceType(ms, nil).Complete()
		}
		out = append(out, it)
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfies reports whether m's receiver type, or a pointer to it, implements
// an interface that has a method named m. A generic type is not checked whole:
// its method satisfies an interface method of the same name and signature.
func satisfies(m *types.Func, ifaces []*types.Interface) bool {
	sig := m.Type().(*types.Signature)
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	generic := named.TypeParams().Len() > 0
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			if im.Name() != m.Name() {
				continue
			}
			if generic {
				isig := im.Type().(*types.Signature)
				if types.Identical(types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic()),
					types.NewSignatureType(nil, nil, nil, isig.Params(), isig.Results(), isig.Variadic())) {
					return true
				}
			} else if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}
