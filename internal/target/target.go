// Package target defines the target-neutral input representation shared
// by every exploration frontend. The engine explores over Input values
// without knowing what they mean to the guest: the bomb corpus lowers
// its argv string and environment facets into one, and the Go frontend
// lowers encoded function arguments into the same Argv1 seam. Keeping
// the type here (rather than in the bombs package) lets core stay
// frontend-agnostic while bombs re-exports it as an alias, so existing
// callers are unchanged.
package target

import "repro/internal/gos"

// Input fully specifies one concrete run: the argument string plus every
// environment facet a target can depend on. The benign input is the seed
// a tool starts from; for bombs the trigger input is the ground truth
// that detonates the bomb. The JSON tags are concolicd's wire shape for
// a solved job's input; Files values are base64 on the wire
// (encoding/json []byte convention).
type Input struct {
	Argv1   string            `json:"argv1"`
	TimeNow uint64            `json:"time,omitempty"`
	Pid     uint64            `json:"pid,omitempty"`
	Web     map[string]string `json:"web,omitempty"`
	Files   map[string][]byte `json:"files,omitempty"`
	Env     map[string]string `json:"env,omitempty"`
}

// Default environment values for benign runs.
const (
	DefaultTime = 1111111111
	DefaultPid  = 4242
)

// Config converts the input into a machine configuration.
func (in Input) Config() gos.Config {
	cfg := gos.Config{
		Argv:       []string{"bomb", in.Argv1},
		TimeNow:    in.TimeNow,
		Pid:        in.Pid,
		WebContent: in.Web,
		Files:      in.Files,
		Env:        in.Env,
	}
	if cfg.TimeNow == 0 {
		cfg.TimeNow = DefaultTime
	}
	if cfg.Pid == 0 {
		cfg.Pid = DefaultPid
	}
	return cfg
}
