package dnn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"repro/internal/tensor"
)

// Network is an ordered chain of layers applied to a fixed input volume.
type Network struct {
	Name   string
	In     Shape
	Layers []Layer

	inBuf *tensor.Tensor
}

// NewNetwork returns an empty network for the given input volume.
func NewNetwork(name string, in Shape) *Network {
	return &Network{Name: name, In: in}
}

// Add appends layers to the network and returns it for chaining.
func (n *Network) Add(layers ...Layer) *Network {
	n.Layers = append(n.Layers, layers...)
	return n
}

// Validate checks that every layer's input volume matches its predecessor
// and returns the output shape.
func (n *Network) Validate() (Shape, error) {
	s := n.In
	for i, l := range n.Layers {
		next, err := l.OutShape(s)
		if err != nil {
			return Shape{}, fmt.Errorf("dnn: layer %d (%s): %w", i, l.Kind(), err)
		}
		s = next
	}
	return s, nil
}

// NumClasses returns the length of the network's output vector.
func (n *Network) NumClasses() int {
	s, err := n.Validate()
	if err != nil {
		panic(err)
	}
	return s.Len()
}

// Forward runs one sample through the network and returns the logits. The
// returned slice is a copy and stays valid across later calls; the
// allocation-free internal path is forward().
func (n *Network) Forward(x []float64) []float64 {
	return append([]float64(nil), n.forward(x)...)
}

// forward runs one sample through the network and returns the logits as a
// view into the final layer's scratch buffer — valid only until the next
// forward pass. Hot loops (training, Infer) use this to stay
// allocation-free per sample.
func (n *Network) forward(x []float64) []float64 {
	if len(x) != n.In.Len() {
		panic(fmt.Sprintf("dnn: input length %d != %v", len(x), n.In))
	}
	t := scratch(&n.inBuf, n.In[0], n.In[1], n.In[2])
	copy(t.Data(), x)
	for _, l := range n.Layers {
		t = l.Forward(t)
	}
	return t.Data()
}

// Infer returns the argmax class for one sample.
func (n *Network) Infer(x []float64) int {
	logits := n.forward(x)
	best, bi := logits[0], 0
	for i, v := range logits {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// MACs returns the total multiply-accumulates for one inference.
func (n *Network) MACs() int {
	s := n.In
	total := 0
	for _, l := range n.Layers {
		total += l.MACs(s)
		s, _ = l.OutShape(s)
	}
	return total
}

// LayerMACs returns per-layer MAC counts.
func (n *Network) LayerMACs() []int {
	s := n.In
	out := make([]int, len(n.Layers))
	for i, l := range n.Layers {
		out[i] = l.MACs(s)
		s, _ = l.OutShape(s)
	}
	return out
}

// ParamCount returns the total stored parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.Layers {
		total += l.ParamCount()
	}
	return total
}

// ParamBytes returns the FRAM footprint of the parameters assuming 16-bit
// quantized weights, plus 32-bit column/row indices for sparse layers. This
// is the figure GENESIS checks against the device's memory budget.
func (n *Network) ParamBytes() int {
	total := 0
	for _, l := range n.Layers {
		switch sl := l.(type) {
		case *SparseDense:
			// 2 bytes per value + 2 bytes per column index + row pointers.
			total += sl.W.NNZ()*4 + (sl.Out+1)*2 + sl.Out*2
		default:
			total += l.ParamCount() * 2
		}
	}
	return total
}

// Clone deep-copies the network via serialization.
func (n *Network) Clone() *Network {
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		panic(err)
	}
	c, err := Decode(&buf)
	if err != nil {
		panic(err)
	}
	return c
}

// layerRecord is the serialized form of one layer.
type layerRecord struct {
	Kind string
	Conv *Conv
	Dns  *Dense
	Spr  *sparseRecord
	Pool *MaxPool
}

// sparseRecord serializes a SparseDense (CSR fields are exported already,
// but the layer holds unexported training state we must not encode).
type sparseRecord struct {
	Out, In int
	W       *tensor.CSR
	B       []float64
}

// netRecord is the serialized form of a Network.
type netRecord struct {
	Name   string
	In     Shape
	Layers []layerRecord
}

// Encode writes the network to w in gob format.
func (n *Network) Encode(w interface{ Write([]byte) (int, error) }) error {
	rec := netRecord{Name: n.Name, In: n.In}
	for _, l := range n.Layers {
		var lr layerRecord
		lr.Kind = l.Kind()
		switch t := l.(type) {
		case *Conv:
			lr.Conv = t
		case *Dense:
			lr.Dns = t
		case *SparseDense:
			lr.Spr = &sparseRecord{Out: t.Out, In: t.In, W: t.W, B: t.B.Data()}
		case *MaxPool:
			lr.Pool = t
		case *ReLU, *Flatten:
			// kind alone suffices
		default:
			return fmt.Errorf("dnn: cannot encode layer kind %q", l.Kind())
		}
		rec.Layers = append(rec.Layers, lr)
	}
	return gob.NewEncoder(w).Encode(rec)
}

// Decode reads a network written by Encode.
func Decode(r interface{ Read([]byte) (int, error) }) (*Network, error) {
	var rec netRecord
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return nil, err
	}
	n := NewNetwork(rec.Name, rec.In)
	for _, lr := range rec.Layers {
		switch lr.Kind {
		case "conv":
			lr.Conv.ensureGrads()
			n.Add(lr.Conv)
		case "dense":
			lr.Dns.ensureGrads()
			n.Add(lr.Dns)
		case "sparse-dense":
			sd := &SparseDense{Out: lr.Spr.Out, In: lr.Spr.In, W: lr.Spr.W,
				B: tensor.FromSlice(lr.Spr.B, len(lr.Spr.B))}
			sd.initBuffers()
			n.Add(sd)
		case "pool":
			n.Add(lr.Pool)
		case "relu":
			n.Add(NewReLU())
		case "flatten":
			n.Add(NewFlatten())
		default:
			return nil, fmt.Errorf("dnn: unknown layer kind %q", lr.Kind)
		}
	}
	if _, err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// SaveFile writes the network to path.
func (n *Network) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return n.Encode(f)
}

// Summary returns a human-readable per-layer description.
func (n *Network) Summary() string {
	var buf bytes.Buffer
	s := n.In
	fmt.Fprintf(&buf, "%s: input %v\n", n.Name, s)
	for i, l := range n.Layers {
		next, _ := l.OutShape(s)
		fmt.Fprintf(&buf, "  %2d %-12s %v -> %v  params=%d macs=%d\n",
			i, l.Kind(), s, next, l.ParamCount(), l.MACs(s))
		s = next
	}
	fmt.Fprintf(&buf, "  total params=%d (%d bytes) macs=%d\n",
		n.ParamCount(), n.ParamBytes(), n.MACs())
	return buf.String()
}
