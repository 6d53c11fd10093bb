package suggest

import (
	"strings"
	"testing"
)

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"sha1", "sha", 1},
		{"jump", "jumptab", 3},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestClosest(t *testing.T) {
	names := []string{"generational", "dfs", "coverage"}
	cases := []struct {
		query, want string
	}{
		{"dsf", "dfs"},
		{"generationl", "generational"},
		{"coverage", "coverage"},
		{"z3", ""}, // nothing plausible
		{"", ""},   // empty query never suggests
	}
	for _, c := range cases {
		if got := Closest(c.query, names); got != c.want {
			t.Errorf("Closest(%q) = %q, want %q", c.query, got, c.want)
		}
	}
}

// TestUnknownShape pins the uniform error dialect: kind, rejected name,
// the full valid list, and a suggestion when one is plausible.
func TestUnknownShape(t *testing.T) {
	err := Unknown("search strategy", "dsf", []string{"generational", "dfs", "coverage"})
	msg := err.Error()
	for _, want := range []string{
		`unknown search strategy "dsf"`,
		"valid: generational, dfs, coverage",
		`did you mean "dfs"?`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("Unknown error %q missing %q", msg, want)
		}
	}
	// No plausible match: the suggestion clause is omitted entirely.
	msg = Unknown("search strategy", "z3", []string{"generational", "dfs", "coverage"}).Error()
	if strings.Contains(msg, "did you mean") {
		t.Errorf("Unknown error %q suggests for an implausible name", msg)
	}
}
