package cosim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"xt910/internal/emu"
	"xt910/internal/mem"
)

// Checkpoint is a serializable image of a single-hart simulation at a commit
// boundary: the golden model's full architectural state (registers, PC,
// privilege, vector file, every materialized CSR), its memory pages, and the
// program output so far. Session.Checkpoint only hands one out after proving
// the timing core agrees with the golden model at that exact boundary — the
// same compare the lock-step checker runs at halt — so a checkpoint is valid
// by construction: resuming from it is indistinguishable from having run the
// prefix (see DESIGN.md "Checkpoint soundness").
type Checkpoint struct {
	// Commits is the lock-step-compared commit count at the boundary.
	Commits uint64 `json:"commits"`
	// Cycles is the core cycle count at the boundary (timing context only;
	// the restored machine is the functional model and carries no clock).
	Cycles uint64 `json:"cycles"`
	// Output is the program output accumulated up to the boundary.
	Output []byte `json:"output,omitempty"`
	// Arch is the golden model's architectural snapshot (no CSR subset —
	// the full raw CSR file lives in CSRs).
	Arch emu.ArchState `json:"arch"`
	// CSRs is the complete raw CSR file (emu.Machine.DumpCSRs), unfiltered
	// by any comparison policy.
	CSRs map[uint16]uint64 `json:"csrs"`
	// Pages is the sparse memory image, keyed by page number (addr >> 12).
	Pages map[uint64][]byte `json:"pages"`
}

// Checkpoint captures the session's state at the current commit boundary,
// first proving the boundary is a sound compare point: the timing core's
// architectural state, every line either model has written and the program
// output must all match the golden model, exactly as the checker's halt-time
// drain would demand. A mismatch returns an error rather than a checkpoint — either the
// models have truly diverged (the checker will report it), or the core has
// taken a trap or interrupt the emulator takes at the next commit; in the
// latter case stepping further and retrying yields a clean boundary.
// Multi-hart sessions are not checkpointable: their state spans a shared
// memory mid-interleaving with no single-hart-local commit boundary.
func (s *Session) Checkpoint() (*Checkpoint, error) {
	if len(s.harts) != 1 {
		return nil, errors.New("cosim: checkpoint requires a single-hart session")
	}
	h := s.harts[0]
	k := h.k
	if k.failed {
		return nil, fmt.Errorf("cosim: session diverged (kind=%s); cannot checkpoint", k.kind)
	}
	if string(h.c.Output) != string(h.m.Output) {
		return nil, fmt.Errorf("cosim: output differs at boundary: core=%q emu=%q", h.c.Output, h.m.Output)
	}
	if addr, cv, ev, differs := k.written.lowestDiff(h.c.Mem, h.m.Mem); differs {
		return nil, fmt.Errorf("cosim: memory differs at boundary: [%#x] core=%#x emu=%#x", addr, cv, ev)
	}
	if _, diffs := k.archDiff(); diffs != nil {
		return nil, fmt.Errorf("cosim: models differ at boundary: %s", diffs[0])
	}
	return &Checkpoint{
		Commits: k.commits,
		Cycles:  h.c.Now(),
		Output:  append([]byte(nil), h.m.Output...),
		Arch:    h.m.Snapshot(),
		CSRs:    h.m.DumpCSRs(),
		Pages:   h.m.Mem.Snapshot(),
	}, nil
}

// NewMachine materializes a fresh golden model at the checkpoint: memory
// pages, the raw CSR file, the scalar and vector architectural state and the
// accumulated output are all restored. Running it forward produces exactly
// the execution the checkpointed session would have produced.
func (cp *Checkpoint) NewMachine() *emu.Machine {
	m := emu.New(mem.NewMemory())
	m.Mem.RestoreSnapshot(cp.Pages)
	m.RestoreCSRs(cp.CSRs)
	m.RestoreArch(cp.Arch)
	m.Output = append([]byte(nil), cp.Output...)
	return m
}

// Encode writes the checkpoint as one JSON document. Maps marshal with
// sorted keys, so the encoding of a given state is deterministic.
func (cp *Checkpoint) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(cp)
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	cp := new(Checkpoint)
	if err := json.NewDecoder(r).Decode(cp); err != nil {
		return nil, err
	}
	return cp, nil
}
