package policy

import "testing"

func TestStringRoundTrip(t *testing.T) {
	for _, d := range []Discipline{FutureFirst, ParentFirst} {
		got, err := Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", d.String(), err)
		}
		if got != d {
			t.Fatalf("Parse(%q) = %v, want %v", d.String(), got, d)
		}
		if !d.Valid() {
			t.Fatalf("%v not valid", d)
		}
	}
}

func TestParseAliases(t *testing.T) {
	for s, want := range map[string]Discipline{
		"ff": FutureFirst, "futurefirst": FutureFirst,
		"pf": ParentFirst, "parentfirst": ParentFirst,
	} {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse(bogus) should fail")
	}
}

func TestInvalid(t *testing.T) {
	d := Discipline(7)
	if d.Valid() {
		t.Fatal("Discipline(7) must not be valid")
	}
	if d.String() != "discipline(7)" {
		t.Fatalf("String = %q", d.String())
	}
}

// TestStealStringRoundTrip: the two thieves have their names, and the value
// of Hierarchical is the profiler's seed offset, so it may not move.
func TestStealStringRoundTrip(t *testing.T) {
	want := map[StealPolicy]string{RandomSingle: "random-single", Hierarchical: "hierarchical"}
	for _, s := range StealPolicies {
		if !s.Valid() || s.String() != want[s] {
			t.Fatalf("%d: Valid = %v, String = %q, want %q", uint8(s), s.Valid(), s.String(), want[s])
		}
	}
	if Hierarchical != 3 {
		t.Fatalf("Hierarchical = %d, want 3 (the matrix's seed offset)", uint8(Hierarchical))
	}
}

func TestStealInvalid(t *testing.T) {
	for _, s := range []StealPolicy{1, 2, 9} {
		if s.Valid() {
			t.Fatalf("StealPolicy(%d) must not be valid", uint8(s))
		}
	}
	if s := StealPolicy(9).String(); s != "stealpolicy(9)" {
		t.Fatalf("String = %q", s)
	}
	if len(StealPolicies) != 2 {
		t.Fatalf("StealPolicies = %v, want both thieves", StealPolicies)
	}
}
