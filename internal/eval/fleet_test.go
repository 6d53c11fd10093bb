package eval

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/bombs"
	"repro/internal/target"
	"repro/internal/tools"
)

// TestCellFromViewKeepsSolvedInput decodes a finished job whose solved
// input sets every facet, in the service's wire shape (Files base64),
// and checks the rebuilt cell carries that input unchanged.
func TestCellFromViewKeepsSolvedInput(t *testing.T) {
	const doc = `{"id":"job-000001","state":"done","result":{"verdict":"solved","label":"",` +
		`"rounds":3,"input":{"argv1":"7","time":1234567890,"pid":77,"web":{"http://x/":"ok"},` +
		`"files":{"/tmp/k":"AAEC/w=="},"env":{"KEY":"v"}},"stats":{"workers":1}}}`
	want := target.Input{Argv1: "7", TimeNow: 1234567890, Pid: 77,
		Web: map[string]string{"http://x/": "ok"}, Files: map[string][]byte{"/tmp/k": {0, 1, 2, 0xff}},
		Env: map[string]string{"KEY": "v"}}
	var v fleetView
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatal(err)
	}
	b, ok := bombs.ByName("jump")
	if !ok {
		t.Fatal("no jump bomb")
	}
	p, ok := tools.ByName("reference")
	if !ok {
		t.Fatal("no reference profile")
	}
	cell, err := cellFromView(b, p, -1, &v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cell.Outcome.Input, want) {
		t.Errorf("cell input = %+v, want %+v", cell.Outcome.Input, want)
	}
}
