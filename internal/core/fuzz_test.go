package core

import (
	"fmt"
	"testing"
)

// FuzzParseCacheModel: a spec is refused, or it yields a model every count of
// which is in range, whose policy is a defined one, and which the canonical
// spelling of its own fields parses back to.
func FuzzParseCacheModel(f *testing.F) {
	for _, s := range []string{"64", "64,lru", "64,fifo,w=16", "128,lru,llc=1024,noideal",
		"32,set-assoc", " 8 , direct-mapped ", "0", "64,w=0", "64,llc=", "99999999999999999999",
		"1048577", "64,bogus", ",", "64,,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseCacheModel(spec)
		if err != nil {
			return
		}
		for _, n := range []int{m.Lines, m.window(), m.LLCLines + 1} {
			if n < 1 || n > maxModelLines+1 {
				t.Fatalf("ParseCacheModel(%q) = %+v: count out of range", spec, *m)
			}
		}
		canon := fmt.Sprintf("%d,%s,w=%d", m.Lines, m.Kind, m.window())
		if m.LLCLines > 0 {
			canon += fmt.Sprintf(",llc=%d", m.LLCLines)
		}
		if m.NoIdeal {
			canon += ",noideal"
		}
		again, err := ParseCacheModel(canon)
		if err != nil || again.String() != m.String() || again.NoIdeal != m.NoIdeal {
			t.Fatalf("ParseCacheModel(%q) = %+v, but its canonical form %q parses to %+v, %v", spec, *m, canon, again, err)
		}
	})
}
