package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"logsynergy/internal/tensor"
)

// Param is a trainable tensor with its accumulated gradient. Parameters are
// created once per model and lifted onto each step's Graph with Graph.Param.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam wraps an initialized value tensor as a named parameter.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ParamSet is an ordered collection of parameters, the unit optimizers and
// serialization operate on. Order is insertion order, which is stable for a
// fixed model construction sequence.
type ParamSet struct {
	params []*Param
	byName map[string]*Param
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// Add registers a parameter; duplicate names panic (they would silently
// break serialization round trips).
func (s *ParamSet) Add(p *Param) *Param {
	if _, dup := s.byName[p.Name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
	}
	s.params = append(s.params, p)
	s.byName[p.Name] = p
	return p
}

// New initializes and registers a parameter using init to fill its value.
func (s *ParamSet) New(name string, value *tensor.Tensor) *Param {
	return s.Add(NewParam(name, value))
}

// All returns the parameters in registration order.
func (s *ParamSet) All() []*Param { return s.params }

// Get returns the parameter with the given name, or nil.
func (s *ParamSet) Get(name string) *Param { return s.byName[name] }

// Merge registers every parameter of other into s.
func (s *ParamSet) Merge(other *ParamSet) {
	for _, p := range other.params {
		s.Add(p)
	}
}

// ZeroGrad clears every parameter's gradient.
func (s *ParamSet) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count.
func (s *ParamSet) NumParams() int {
	n := 0
	for _, p := range s.params {
		n += p.Value.Size()
	}
	return n
}

// GradNorm returns the global L2 norm across every parameter gradient.
func (s *ParamSet) GradNorm() float64 {
	sum := 0.0
	for _, p := range s.params {
		for _, v := range p.Grad.Data {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// ClipGradNorm rescales all gradients so their global norm is at most max.
func (s *ParamSet) ClipGradNorm(max float64) {
	norm := s.GradNorm()
	if norm <= max || norm == 0 {
		return
	}
	scale := max / norm
	for _, p := range s.params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= scale
		}
	}
}

// savedParam is the on-disk form of one parameter.
type savedParam struct {
	Name  string    `json:"name"`
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// Save serializes every parameter value as JSON.
func (s *ParamSet) Save(w io.Writer) error {
	out := make([]savedParam, 0, len(s.params))
	for _, p := range s.params {
		out = append(out, savedParam{Name: p.Name, Shape: p.Value.Shape, Data: p.Value.Data})
	}
	return json.NewEncoder(w).Encode(out)
}

// Load restores parameter values saved with Save. Every saved parameter must
// exist in the set with a matching shape; extra live parameters are left
// untouched.
func (s *ParamSet) Load(r io.Reader) error {
	var in []savedParam
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("nn: decoding parameters: %w", err)
	}
	for _, sp := range in {
		p := s.byName[sp.Name]
		if p == nil {
			return fmt.Errorf("nn: unknown parameter %q in checkpoint", sp.Name)
		}
		// Validate against the live parameter without materializing a tensor
		// from checkpoint-supplied dimensions: a corrupted shape whose
		// product disagrees with the data length must be a descriptive
		// error, not a tensor-construction panic.
		if !shapeEqual(sp.Shape, p.Value.Shape) {
			return fmt.Errorf("nn: parameter %q shape %v does not match checkpoint %v",
				sp.Name, p.Value.Shape, sp.Shape)
		}
		if len(sp.Data) != p.Value.Size() {
			return fmt.Errorf("nn: parameter %q has %d checkpoint values for shape %v (want %d)",
				sp.Name, len(sp.Data), sp.Shape, p.Value.Size())
		}
		copy(p.Value.Data, sp.Data)
	}
	return nil
}

// shapeEqual reports whether two dimension lists are identical.
func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// XavierUniform returns a [fanIn,fanOut] tensor initialized with the
// Glorot/Xavier uniform scheme.
func XavierUniform(rng *rand.Rand, fanIn, fanOut int) *tensor.Tensor {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	return tensor.RandUniform(rng, -limit, limit, fanIn, fanOut)
}

// Ones returns a vector of ones (layer-norm gain initialization).
func Ones(n int) *tensor.Tensor {
	t := tensor.New(n)
	t.Fill(1)
	return t
}
