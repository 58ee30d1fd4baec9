// Package nn implements a small tape-based reverse-mode automatic
// differentiation engine and the neural building blocks LogSynergy and its
// baselines are made of: linear layers, layer normalization, multi-head
// attention, transformer encoders, LSTM/GRU/BiLSTM cells, a gradient
// reversal layer, and classification losses.
//
// Usage pattern: construct one Graph per training step, lift parameters and
// inputs into Nodes, compose operations, call Backward on the scalar loss,
// and hand the accumulated parameter gradients to an optimizer from
// internal/nn/optim.
//
// The same layers run without a tape for scoring: a Graph from
// NewInferenceGraph computes the same values with the same kernels, records
// nothing, and takes every buffer from a scratch arena it rewinds on Reset.
// A network is described once, as a function of a *Graph; the graph it is
// handed decides whether a backward pass is possible.
package nn

import (
	"fmt"

	"logsynergy/internal/tensor"
)

// Node is one value on the autodiff tape. Value is the forward result;
// grad (allocated lazily) accumulates dLoss/dValue during Backward.
type Node struct {
	Value *tensor.Tensor

	grad      *tensor.Tensor
	needsGrad bool
	backward  func(g *tensor.Tensor)
}

// Grad returns the accumulated gradient for this node, or nil if no
// gradient flowed into it (or it does not require one).
func (n *Node) Grad() *tensor.Tensor { return n.grad }

// ensureGrad allocates the gradient buffer on first use.
func (n *Node) ensureGrad() *tensor.Tensor {
	if n.grad == nil {
		n.grad = tensor.New(n.Value.Shape...)
	}
	return n.grad
}

// accumulate adds g into the node's gradient buffer if the node requires a
// gradient. It is the only way upstream gradients reach a node.
func (n *Node) accumulate(g *tensor.Tensor) {
	if !n.needsGrad {
		return
	}
	tensor.AddInPlace(n.ensureGrad(), g)
}

// Graph is a linear tape of nodes in creation order. Creation order is a
// valid topological order because every operation's inputs already exist
// when the operation node is appended.
//
// An inference graph (NewInferenceGraph) keeps no tape: arena is non-nil,
// operation outputs come from it, nodes are value-only and come from slab,
// and every kernel runs on the calling goroutine.
type Graph struct {
	nodes []*Node

	arena *tensor.Arena
	slab  []Node
	used  int // of slab
	taken int // nodes since the last Reset, over every slab of the pass
	// last is the inference graph's most recent operation output, unless
	// that was a view (Reshape): a buffer of its own that no other operation
	// can have read yet, so AddBias may add into it.
	last *Node
}

// NewGraph returns an empty tape.
func NewGraph() *Graph { return &Graph{} }

// NewInferenceGraph returns a tape-free graph over a scratch arena of its
// own. Forward operations compute exactly what they compute on a tape, bit
// for bit, but allocate nothing once the arena is warm; Backward panics.
// Values read from its nodes are valid until Reset. Not safe for concurrent
// use: give each goroutine its own (they are cheap to pool).
func NewInferenceGraph() *Graph { return &Graph{arena: new(tensor.Arena)} }

// Reset rewinds an inference graph's arena and node slab for the next
// forward pass, invalidating every node and value it produced.
func (g *Graph) Reset() {
	g.arena.Reset()
	if g.taken > len(g.slab) {
		// Like the arena: one pass sizes the slab for the next.
		g.slab = make([]Node, g.taken)
	}
	g.used, g.taken = 0, 0
	g.last = nil
}

// NumNodes reports how many nodes are on the tape (useful in tests).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// newTensor returns the zero-filled output buffer of an operation:
// tensor.New on a tape, the arena on an inference graph.
func (g *Graph) newTensor(shape ...int) *tensor.Tensor {
	if g.arena != nil {
		return g.arena.New(shape...)
	}
	return tensor.New(shape...)
}

// value returns a value-only node from the inference graph's slab.
func (g *Graph) value(t *tensor.Tensor) *Node {
	if g.used == len(g.slab) {
		// Nodes already handed out keep the old slab alive.
		g.slab = make([]Node, max(2*len(g.slab), 64))
		g.used = 0
	}
	n := &g.slab[g.used]
	g.used++
	g.taken++
	*n = Node{Value: t}
	return n
}

// result is what an operation returns on an inference graph: a value-only
// node over out, the buffer it just took from the arena. Operations return
// it before their backward closure literal is evaluated, so a tape-free
// pass never allocates the closure.
func (g *Graph) result(out *tensor.Tensor) *Node {
	g.last = g.value(out)
	return g.last
}

// add registers a node produced by an operation whose inputs are parents.
// The node requires a gradient iff any parent does.
func (g *Graph) add(value *tensor.Tensor, backward func(gr *tensor.Tensor), parents ...*Node) *Node {
	if g.arena != nil {
		panic("nn: this operation has no tape-free form and cannot run on an inference graph")
	}
	n := &Node{Value: value, backward: backward}
	for _, p := range parents {
		if p.needsGrad {
			n.needsGrad = true
			break
		}
	}
	g.nodes = append(g.nodes, n)
	return n
}

// Const lifts a tensor onto the tape as a constant input: gradients are
// neither required nor propagated through it.
func (g *Graph) Const(t *tensor.Tensor) *Node {
	if g.arena != nil {
		return g.value(t)
	}
	n := &Node{Value: t}
	g.nodes = append(g.nodes, n)
	return n
}

// Param lifts a trainable parameter onto the tape. Gradients accumulate
// directly into p.Grad so the optimizer sees them without copying.
func (g *Graph) Param(p *Param) *Node {
	if g.arena != nil {
		return g.value(p.Value)
	}
	n := &Node{Value: p.Value, grad: p.Grad, needsGrad: true}
	g.nodes = append(g.nodes, n)
	return n
}

// Backward runs reverse-mode differentiation from the scalar loss node.
func (g *Graph) Backward(loss *Node) {
	if g.arena != nil {
		panic("nn: Backward on an inference graph: it keeps no tape")
	}
	if loss.Value.Size() != 1 {
		panic(fmt.Sprintf("nn: Backward requires a scalar loss, got shape %v", loss.Value.Shape))
	}
	if !loss.needsGrad {
		return // loss does not depend on any parameter
	}
	lg := loss.ensureGrad()
	lg.Fill(1)
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		if n.backward != nil && n.needsGrad && n.grad != nil {
			n.backward(n.grad)
		}
	}
}
