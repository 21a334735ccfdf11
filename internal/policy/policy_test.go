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

// TestStealStringRoundTrip: the one thief has its name.
func TestStealStringRoundTrip(t *testing.T) {
	if !RandomSingle.Valid() || RandomSingle.String() != "random-single" {
		t.Fatalf("RandomSingle: Valid = %v, String = %q", RandomSingle.Valid(), RandomSingle.String())
	}
}

func TestStealInvalid(t *testing.T) {
	for _, s := range []StealPolicy{1, 2, 3, 9} {
		if s.Valid() {
			t.Fatalf("StealPolicy(%d) must not be valid", uint8(s))
		}
	}
	if s := StealPolicy(9).String(); s != "stealpolicy(9)" {
		t.Fatalf("String = %q", s)
	}
}
