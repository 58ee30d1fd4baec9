package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"logsynergy/internal/httpapi"
	"logsynergy/internal/shard"
)

// The node side of the networked live cutover: each handler here wraps
// one shard-runtime primitive (begin, sync, capture, stage, install,
// forget, finish, directed append) in the versioned admin surface —
// method-checked, epoch-fenced, envelope-erroring. The coordinator
// (Router.LiveRebalance) sequences them; a node never initiates.

// maxSpliceBytes bounds one staged-splice request body. A splice
// carries one key's window tail plus the donor's event space and
// pattern library — far below this in practice.
const maxSpliceBytes = 32 << 20

// handleDirectedAppend is POST /admin/v1/append?partition=P: append the
// body's lines straight to one owned partition's WAL, bypassing ring
// routing. This is the router's double-write data path during a live
// cutover — the router, which knows which node holds the other side of
// each moving key's double-write, targets donor and destination
// partitions explicitly. The answer is /ingest's (shard.IngestResponse
// through its Write), so the router reads directed shares exactly like
// routed ones.
func (n *Node) handleDirectedAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set(EpochHeader, strconv.FormatUint(n.Epoch(), 10))
		httpapi.MethodNotAllowed(w, http.MethodPost, "directed append accepts POST only")
		return
	}
	if !n.fenceEpoch(w, r) {
		return
	}
	part, err := strconv.Atoi(r.URL.Query().Get("partition"))
	if err != nil || part < 0 {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
			Code:    httpapi.CodeBadRequest,
			Message: fmt.Sprintf("directed append needs a partition index: ?partition=%q is not one", r.URL.Query().Get("partition")),
		})
		return
	}
	lines, refused := httpapi.ReadBatch(w, r, n.cfg.MaxBatchBytes)
	if refused != 0 {
		return
	}
	n.rt.DirectedAppendBatch(part, lines).Write(w)
}

// cutoverPost guards the common shape of the cutover endpoints: POST
// only, epoch-fenced. Returns false when it wrote the refusal.
func (n *Node) cutoverPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		httpapi.MethodNotAllowed(w, http.MethodPost, "cutover endpoints accept POST only")
		return false
	}
	return n.fenceEpoch(w, r)
}

// conflict writes the uniform 409 envelope for a refused cutover step.
func conflict(w http.ResponseWriter, err error) {
	httpapi.Error(w, http.StatusConflict, httpapi.Detail{Code: httpapi.CodeConflict, Message: err.Error()})
}

// cutoverKey guards the per-key cutover endpoints: POST, epoch-fenced,
// with a ?key= parameter. Returns false when it wrote the refusal.
func (n *Node) cutoverKey(w http.ResponseWriter, r *http.Request, step string) (string, bool) {
	if !n.cutoverPost(w, r) {
		return "", false
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{Code: httpapi.CodeBadRequest, Message: step + " needs ?key="})
		return "", false
	}
	return key, true
}

func answerJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleCutoverBegin is POST /admin/v1/cutover/begin (body:
// shard.CutoverSpec): flip this node into the journaled live cutover.
func (n *Node) handleCutoverBegin(w http.ResponseWriter, r *http.Request) {
	if !n.cutoverPost(w, r) {
		return
	}
	var spec shard.CutoverSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
			Code:    httpapi.CodeBadRequest,
			Message: "cutover begin body is not a CutoverSpec: " + err.Error(),
		})
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
// {"keys": {key: "committed"|"released"}}): advance per-key phases from
// the coordinator's journal.
func (n *Node) handleCutoverSync(w http.ResponseWriter, r *http.Request) {
	if !n.cutoverPost(w, r) {
		return
	}
	var body struct {
		Keys map[string]string `json:"keys"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&body); err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
			Code:    httpapi.CodeBadRequest,
			Message: "cutover sync body is not a key-phase map: " + err.Error(),
		})
		return
	}
	if err := n.rt.SyncCutover(body.Keys); err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string]int{"synced": len(body.Keys)})
}

// handleCutoverKeys is GET /admin/v1/cutover/keys: the moving keys
// still pending on this node's donor partitions.
func (n *Node) handleCutoverKeys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.MethodNotAllowed(w, http.MethodGet, "cutover keys accepts GET only")
		return
	}
	if !n.fenceEpoch(w, r) {
		return
	}
	keys, err := n.rt.PendingMovingKeys()
	if err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string][]string{"keys": keys})
}

// handleCutoverCapture is POST /admin/v1/cutover/capture?key=K: capture
// the key's splice from its donor partition. Refused (409, retryable)
// until the donor has consumed through its freeze point.
func (n *Node) handleCutoverCapture(w http.ResponseWriter, r *http.Request) {
	key, ok := n.cutoverKey(w, r, "capture")
	if !ok {
		return
	}
	sp, err := n.rt.CaptureKey(key)
	if err != nil {
		httpapi.Error(w, http.StatusConflict, httpapi.Detail{
			Code: httpapi.CodeConflict, Message: err.Error(), RetryAfterS: 1,
		})
		return
	}
	answerJSON(w, sp)
}

// handleCutoverStage is POST /admin/v1/cutover/stage (body: a
// shard.KeySplice) — the transfer endpoint: durably write a captured
// splice into the destination partition's directory.
func (n *Node) handleCutoverStage(w http.ResponseWriter, r *http.Request) {
	if !n.cutoverPost(w, r) {
		return
	}
	var sp shard.KeySplice
	if err := json.NewDecoder(io.LimitReader(r.Body, maxSpliceBytes)).Decode(&sp); err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
			Code:    httpapi.CodeBadRequest,
			Message: "cutover stage body is not a KeySplice: " + err.Error(),
		})
		return
	}
	if err := n.rt.StageSplice(sp); err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string]string{"staged": sp.Key})
}

// handleCutoverInstall is POST /admin/v1/cutover/install?key=K: apply
// the key's staged splice to the live destination partition.
func (n *Node) handleCutoverInstall(w http.ResponseWriter, r *http.Request) {
	key, ok := n.cutoverKey(w, r, "install")
	if !ok {
		return
	}
	if err := n.rt.InstallSplice(key); err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string]string{"installed": key})
}

// handleCutoverForget is POST /admin/v1/cutover/forget?key=K: drop the
// moved key's tail from its donor partition.
func (n *Node) handleCutoverForget(w http.ResponseWriter, r *http.Request) {
	key, ok := n.cutoverKey(w, r, "forget")
	if !ok {
		return
	}
	if err := n.rt.ForgetKey(key); err != nil {
		conflict(w, err)
		return
	}
	answerJSON(w, map[string]string{"forgotten": key})
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
