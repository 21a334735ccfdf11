package figreg

import (
	"strings"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/sim"
)

func TestBuildAllNames(t *testing.T) {
	for _, name := range Names() {
		inst, err := Build(name, Spec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Graph == nil || inst.Graph.Len() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		if inst.Desc == "" {
			t.Fatalf("%s: missing description", name)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	_, err := Build("nope", Spec{})
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildCaseInsensitive(t *testing.T) {
	if _, err := Build("FIG6A", Spec{K: 4, C: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestScriptedInstancesRun(t *testing.T) {
	for _, name := range Names() {
		inst, err := Build(name, Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if inst.Script == nil {
			continue
		}
		p := inst.Procs
		if p == 0 {
			p = 2
		}
		eng, err := sim.New(inst.Graph, sim.Config{
			P: p, Policy: inst.Policy, CacheLines: 8, Control: inst.Script,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: scripted run: %v", name, err)
		}
		if err := res.Validate(inst.Graph); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestUnscriptedInstancesRun(t *testing.T) {
	for _, name := range Names() {
		inst, err := Build(name, Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if inst.Script != nil {
			continue
		}
		res, err := sim.Sequential(inst.Graph, inst.Policy, 8, cache.LRU)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Validate(inst.Graph); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSpecParametersRespected(t *testing.T) {
	small, _ := Build("fig6a", Spec{K: 4, C: 1})
	big, _ := Build("fig6a", Spec{K: 32, C: 1})
	if big.Graph.Len() <= small.Graph.Len() {
		t.Fatal("K parameter ignored")
	}
	r1, _ := Build("random", Spec{Seed: 1})
	r2, _ := Build("random", Spec{Seed: 2})
	if r1.Graph.Len() == r2.Graph.Len() && r1.Graph.Span() == r2.Graph.Span() {
		t.Log("seeds produced same-shape graphs (possible but unlikely)")
	}
}
