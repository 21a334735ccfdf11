package dag

import "testing"

func TestDisciplineStringRoundTrip(t *testing.T) {
	for _, d := range []Discipline{FutureFirst, ParentFirst} {
		got, err := ParseDiscipline(d.String())
		if err != nil {
			t.Fatalf("ParseDiscipline(%q): %v", d.String(), err)
		}
		if got != d {
			t.Fatalf("ParseDiscipline(%q) = %v, want %v", d.String(), got, d)
		}
		if !d.Valid() {
			t.Fatalf("%v not valid", d)
		}
	}
}

func TestParseDisciplineAliases(t *testing.T) {
	for s, want := range map[string]Discipline{
		"ff": FutureFirst, "futurefirst": FutureFirst,
		"pf": ParentFirst, "parentfirst": ParentFirst,
	} {
		got, err := ParseDiscipline(s)
		if err != nil || got != want {
			t.Fatalf("ParseDiscipline(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseDiscipline("bogus"); err == nil {
		t.Fatal("ParseDiscipline(bogus) should fail")
	}
}

func TestDisciplineInvalid(t *testing.T) {
	d := Discipline(7)
	if d.Valid() {
		t.Fatal("Discipline(7) must not be valid")
	}
	if d.String() != "discipline(7)" {
		t.Fatalf("String = %q", d.String())
	}
}
