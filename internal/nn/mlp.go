package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// A small multi-layer perceptron classifier with int8-quantizable weights.
// This is the measurable stand-in for the paper's PyTorch image classifiers
// in fault-injection studies: the full pipeline — train, quantize, store,
// inject storage faults, de-quantize, infer, score — runs in-process.

// Dense is one fully connected layer with float32 master weights.
type Dense struct {
	In, Out int
	W       []float32 // row-major [Out][In]
	B       []float32 // [Out]
}

// NewDense allocates a layer with small random weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	l := &Dense{In: in, Out: out,
		W: make([]float32, in*out), B: make([]float32, out)}
	scale := float32(math.Sqrt(2.0 / float64(in)))
	for i := range l.W {
		l.W[i] = float32(rng.NormFloat64()) * scale
	}
	return l
}

// Forward computes y = Wx + b.
func (l *Dense) Forward(x, y []float32) {
	for o := 0; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
}

// MLP is a two-hidden-layer ReLU classifier.
type MLP struct {
	L1, L2, L3 *Dense
	buf1, buf2 []float32
}

// NewMLP builds an untrained in→hidden→hidden→classes network.
func NewMLP(in, hidden, classes int, rng *rand.Rand) *MLP {
	return &MLP{
		L1:   NewDense(in, hidden, rng),
		L2:   NewDense(hidden, hidden, rng),
		L3:   NewDense(hidden, classes, rng),
		buf1: make([]float32, hidden),
		buf2: make([]float32, hidden),
	}
}

func relu(v []float32) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// Logits runs a forward pass into out (len = classes).
func (m *MLP) Logits(x []float32, out []float32) {
	m.L1.Forward(x, m.buf1)
	relu(m.buf1)
	m.L2.Forward(m.buf1, m.buf2)
	relu(m.buf2)
	m.L3.Forward(m.buf2, out)
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(x []float32) int {
	out := make([]float32, m.L3.Out)
	m.Logits(x, out)
	best := 0
	for i, v := range out {
		if v > out[best] {
			best = i
		}
	}
	return best
}

// Layers lists the dense layers in order.
func (m *MLP) Layers() []*Dense { return []*Dense{m.L1, m.L2, m.L3} }

// --- int8 quantization ------------------------------------------------------

// QuantizedLayer holds a layer's weights in the int8 storage format the
// fault injector attacks: one byte per weight, symmetric per-layer scale.
type QuantizedLayer struct {
	In, Out int
	Scale   float32 // weight = int8 * Scale
	Q       []byte  // int8 stored as raw bytes, row-major [Out][In]
	B       []float32
}

// QuantizedMLP is the deployable, storable form of an MLP.
type QuantizedMLP struct {
	Layers  []QuantizedLayer
	Classes int
}

// Quantize converts the float model to symmetric per-layer int8.
func (m *MLP) Quantize() *QuantizedMLP {
	q := &QuantizedMLP{Classes: m.L3.Out}
	for _, l := range m.Layers() {
		maxAbs := float32(1e-8)
		for _, w := range l.W {
			if a := float32(math.Abs(float64(w))); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		ql := QuantizedLayer{In: l.In, Out: l.Out, Scale: scale,
			Q: make([]byte, len(l.W)), B: append([]float32(nil), l.B...)}
		for i, w := range l.W {
			v := math.Round(float64(w / scale))
			if v > 127 {
				v = 127
			}
			if v < -128 {
				v = -128
			}
			ql.Q[i] = byte(int8(v))
		}
		q.Layers = append(q.Layers, ql)
	}
	return q
}

// WeightBytes returns the raw stored weight bytes of layer i — the data an
// eNVM array would hold and the fault injector corrupts in place.
func (q *QuantizedMLP) WeightBytes(i int) []byte { return q.Layers[i].Q }

// TotalWeightBytes sums stored weight bytes across layers.
func (q *QuantizedMLP) TotalWeightBytes() int {
	n := 0
	for _, l := range q.Layers {
		n += len(l.Q)
	}
	return n
}

// Clone deep-copies the quantized model (so fault trials don't accumulate).
func (q *QuantizedMLP) Clone() *QuantizedMLP {
	out := &QuantizedMLP{Classes: q.Classes}
	for _, l := range q.Layers {
		cl := l
		cl.Q = append([]byte(nil), l.Q...)
		cl.B = append([]float32(nil), l.B...)
		out.Layers = append(out.Layers, cl)
	}
	return out
}

// Predict runs de-quantized inference for one sample.
func (q *QuantizedMLP) Predict(x []float32) int {
	cur := x
	for li, l := range q.Layers {
		next := make([]float32, l.Out)
		for o := 0; o < l.Out; o++ {
			sum := l.B[o]
			row := l.Q[o*l.In : (o+1)*l.In]
			for i, xi := range cur {
				sum += float32(int8(row[i])) * l.Scale * xi
			}
			next[o] = sum
		}
		if li < len(q.Layers)-1 {
			relu(next)
		}
		cur = next
	}
	best := 0
	for i, v := range cur {
		if v > cur[best] {
			best = i
		}
	}
	return best
}

// Accuracy scores the quantized model on a dataset.
func (q *QuantizedMLP) Accuracy(ds *Dataset) float64 {
	if len(ds.X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range ds.X {
		if q.Predict(x) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.X))
}

// String summarizes the quantized model.
func (q *QuantizedMLP) String() string {
	return fmt.Sprintf("QuantizedMLP{%d layers, %dB weights, %d classes}",
		len(q.Layers), q.TotalWeightBytes(), q.Classes)
}
