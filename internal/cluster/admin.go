package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"logsynergy/internal/httpapi"
	"logsynergy/internal/shard"
)

// The node side of the networked live cutover: each handler here wraps
// one shard-runtime primitive (begin, sync, pending moves, capture,
// install, finish) in the versioned admin surface — method-checked,
// epoch-fenced, envelope-erroring. The coordinator (Router.LiveRebalance)
// sequences them; a node never initiates.

// maxSpliceBytes bounds one install request body, and the router's read
// of any node answer (a capture answers with the splice). A splice
// carries the window tails of every key of one move plus the donor's
// event space.
const maxSpliceBytes = 32 << 20

// cutoverPost guards the common shape of the cutover endpoints: POST
// only, epoch-fenced. Returns false when it wrote the refusal.
func (n *Node) cutoverPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		httpapi.MethodNotAllowed(w, http.MethodPost, "cutover endpoints accept POST only")
		return false
	}
	return n.fenceEpoch(w, r)
}

// cutoverBody guards the cutover endpoints that take a JSON body: POST,
// epoch-fenced, and a body of at most limit bytes (413 too_large, naming
// the bound, past it) that decodes into v, a what (400 bad_request
// otherwise). Returns false when it wrote the refusal.
func (n *Node) cutoverBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	if !n.cutoverPost(w, r) {
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpapi.Error(w, http.StatusRequestEntityTooLarge, httpapi.Detail{Code: httpapi.CodeTooLarge,
			Message: fmt.Sprintf("%s body exceeds the limit of %d bytes", r.URL.Path, limit)})
	case err != nil:
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{Code: httpapi.CodeBadRequest,
			Message: fmt.Sprintf("%s body is not a %s: %v", r.URL.Path, what, err)})
	default:
		return true
	}
	return false
}

// conflict writes the uniform 409 envelope for a refused cutover step.
func conflict(w http.ResponseWriter, err error) {
	httpapi.Error(w, http.StatusConflict, httpapi.Detail{Code: httpapi.CodeConflict, Message: err.Error()})
}

func answerJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleCutoverBegin is POST /admin/v1/cutover/begin (body:
// shard.CutoverSpec): flip this node into the journaled live cutover.
func (n *Node) handleCutoverBegin(w http.ResponseWriter, r *http.Request) {
	var spec shard.CutoverSpec
	if !n.cutoverBody(w, r, 1<<20, "CutoverSpec", &spec) {
		return
	}
	res, err := n.beginCutover(spec)
	if err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, res)
}

// beginCutover fences the destination partition before the runtime
// opens it: when this node hosts the new partition, the same flock +
// epoch lease that guards every other partition is acquired on its
// directory first — a second node (or a stale restart) trying to open
// the destination fails at the lease, never at the WAL. The lease joins
// n.leases so Refresh restakes it and Close releases it.
func (n *Node) beginCutover(spec shard.CutoverSpec) (*shard.CutoverBeginResult, error) {
	var acquired *Lease
	if spec.Dest {
		n.mu.Lock()
		dest := spec.To - 1
		if n.leases[dest] == nil {
			l, err := acquireLease(shard.PartitionDir(n.dir, dest), n.m.Epoch, n.name)
			if err != nil {
				n.mu.Unlock()
				return nil, fmt.Errorf("cluster: fencing cutover destination partition %d: %w", dest, err)
			}
			n.leases[dest] = l
			acquired = l
		}
		n.mu.Unlock()
	}
	res, err := n.rt.BeginCutover(spec, nil)
	if err != nil && acquired != nil {
		n.mu.Lock()
		acquired.Release()
		delete(n.leases, spec.To-1)
		n.mu.Unlock()
	}
	return res, err
}

// handleCutoverSync is POST /admin/v1/cutover/sync (body:
// {"committed": ["0>2", ...]}): record the moves the coordinator's
// journal committed.
func (n *Node) handleCutoverSync(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Committed []shard.Move `json:"committed"`
	}
	if !n.cutoverBody(w, r, 1<<20, "committed-move list", &body) {
		return
	}
	if err := n.rt.SyncCutover(body.Committed); err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string]int{"synced": len(body.Committed)})
}

// handleCutoverMoves is GET /admin/v1/cutover/moves: the moves still
// pending on this node's donor partitions.
func (n *Node) handleCutoverMoves(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.MethodNotAllowed(w, http.MethodGet, "cutover moves accepts GET only")
		return
	}
	if !n.fenceEpoch(w, r) {
		return
	}
	moves, err := n.rt.PendingMoves()
	if err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string][]shard.Move{"moves": moves})
}

// handleCutoverCapture is POST /admin/v1/cutover/capture?move=D>T,
// epoch-fenced: the move's splice, captured from its donor. A refused
// capture answers 409, retryable: capture is refused until the donor has
// consumed through its freeze point.
func (n *Node) handleCutoverCapture(w http.ResponseWriter, r *http.Request) {
	if !n.cutoverPost(w, r) {
		return
	}
	var m shard.Move
	if err := m.UnmarshalText([]byte(r.URL.Query().Get("move"))); err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{Code: httpapi.CodeBadRequest, Message: "capture needs ?move=: " + err.Error()})
		return
	}
	sp, err := n.rt.CaptureMove(m)
	if err != nil {
		httpapi.Error(w, http.StatusConflict, httpapi.Detail{Code: httpapi.CodeConflict, Message: err.Error(), RetryAfterS: 1})
		return
	}
	answerJSON(w, sp)
}

// handleCutoverInstall is POST /admin/v1/cutover/install (body: a
// shard.MoveSplice of at most maxSpliceBytes, else 413) — the transfer
// endpoint: apply a captured splice to its destination partition, which
// answers once its snapshot holds it. A splice the runtime refuses for
// what it holds (shard.ErrBadSplice) is a 400; a refusal for the
// runtime's state is a 409.
func (n *Node) handleCutoverInstall(w http.ResponseWriter, r *http.Request) {
	var sp shard.MoveSplice
	if !n.cutoverBody(w, r, maxSpliceBytes, "MoveSplice", &sp) {
		return
	}
	if err := n.rt.InstallSplice(sp); errors.Is(err, shard.ErrBadSplice) {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{Code: httpapi.CodeBadRequest, Message: err.Error()})
		return
	} else if err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string]shard.Move{"installed": sp.Move})
}

// handleCutoverFinish is POST /admin/v1/cutover/finish?to=N: restamp
// every owned partition at the new layout and leave the cutover.
func (n *Node) handleCutoverFinish(w http.ResponseWriter, r *http.Request) {
	if !n.cutoverPost(w, r) {
		return
	}
	to, err := strconv.Atoi(r.FormValue("to"))
	if err != nil || to <= 0 {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
			Code:    httpapi.CodeBadRequest,
			Message: fmt.Sprintf("finish needs a positive partition count: to=%q is not one", r.FormValue("to")),
		})
		return
	}
	if err := n.rt.CompleteCutover(to); err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string]int{"shards": to})
}
