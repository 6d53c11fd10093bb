package eval

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/tools"
)

// TestExplicitGenerationalOverridesProfile checks that naming the
// generational strategy is not mistaken for leaving it unset:
// `evaltable -extended -strategy generational` must put the Reference
// column, whose profile default is depth-first, on generational search,
// while "" keeps every profile's own default.
func TestExplicitGenerationalOverridesProfile(t *testing.T) {
	ref, ok := tools.ByName("reference")
	if !ok {
		t.Fatal("no reference profile")
	}
	if ref.Caps.Search == core.SearchGenerational {
		t.Fatal("reference profile already defaults to generational; the test shows nothing")
	}
	profiles := tools.TableIIExtended()
	ApplyOptions(profiles, Options{Engine: cliopts.Options{Strategy: "generational"}})
	for _, p := range profiles {
		if p.Caps.Search != core.SearchGenerational {
			t.Errorf("%s: search %v under -strategy generational", p.Name(), p.Caps.Search)
		}
	}
	profiles = tools.TableIIExtended()
	ApplyOptions(profiles, Options{})
	for i, p := range tools.TableIIExtended() {
		if profiles[i].Caps.Search != p.Caps.Search {
			t.Errorf("%s: empty strategy moved search %v -> %v", p.Name(), p.Caps.Search, profiles[i].Caps.Search)
		}
	}
}

// TestFleetSendsExplicitGenerational checks the fleet client puts an
// explicit generational strategy on the wire, where the replica applies
// it to the Reference column too. The stub replica rejects every job,
// which ends the grid run after the first submission.
func TestFleetSendsExplicitGenerational(t *testing.T) {
	var got fleetRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &got)
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, `{"error":"stub replica"}`)
	}))
	defer srv.Close()
	if _, err := RunTableIIExtendedFleet(cliopts.Options{Strategy: "generational"}, []string{srv.URL}); err == nil {
		t.Fatal("stub replica accepted a job")
	}
	if got.Strategy != "generational" {
		t.Errorf("submitted strategy %q, want \"generational\"", got.Strategy)
	}
}
