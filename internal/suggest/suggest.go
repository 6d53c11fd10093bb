// Package suggest is the shared "did you mean" helper: one edit-distance
// suggester and one error shape for every name registry in the system —
// bomb names, solver modes, search strategies, tool profiles, and the Go
// frontend's function names. Centralizing it keeps the CLIs, the service
// and the frontends from drifting into different error dialects.
package suggest

import (
	"fmt"
	"strings"
)

// Closest returns the candidate nearest to name by edit distance, or ""
// when nothing is close enough to be a plausible typo (distance bounded
// by half the query length, minimum 2).
func Closest(name string, candidates []string) string {
	if name == "" {
		return ""
	}
	limit := len(name)/2 + 1
	if limit < 2 {
		limit = 2
	}
	best, bestDist := "", limit+1
	for _, c := range candidates {
		if d := EditDistance(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	if bestDist > limit {
		return ""
	}
	return best
}

// Unknown builds the uniform unknown-name error: it names the kind, the
// rejected value, every valid name, and — when one is plausibly a typo —
// the closest match.
//
//	unknown search strategy "dsf" (valid: generational, dfs, coverage) — did you mean "dfs"?
func Unknown(kind, name string, valid []string) error {
	msg := fmt.Sprintf("unknown %s %q (valid: %s)", kind, name, strings.Join(valid, ", "))
	if s := Closest(name, valid); s != "" {
		msg += fmt.Sprintf(" — did you mean %q?", s)
	}
	return fmt.Errorf("%s", msg)
}

// EditDistance is the Levenshtein distance, two-row dynamic program.
func EditDistance(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
