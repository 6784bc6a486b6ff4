// Package mem models the MSP430FR5994's two embedded memories: a small
// volatile SRAM and a larger non-volatile FRAM. Each memory has a byte
// capacity enforced at allocation time (GENESIS's feasibility check is
// "do the weights fit in FRAM?"), and hands out word-addressed regions.
//
// A power failure clears SRAM but leaves FRAM intact; the device model in
// package mcu calls ClearVolatile on reboot. Access energy is charged by
// the device, not here — this package is pure storage.
package mem

import "fmt"

// Kind distinguishes the two memory technologies.
type Kind uint8

// Memory kinds.
const (
	FRAM Kind = iota // non-volatile, slower, higher access energy
	SRAM             // volatile, fast
)

func (k Kind) String() string {
	if k == FRAM {
		return "FRAM"
	}
	return "SRAM"
}

// Default capacities of the TI MSP430FR5994 (256 KB FRAM, 8 KB SRAM, of
// which 4 KB is the LEA-shared bank).
const (
	DefaultFRAMBytes = 256 * 1024
	DefaultSRAMBytes = 8 * 1024
	LEABufferBytes   = 4 * 1024
)

// Memory is one physical memory bank.
type Memory struct {
	kind     Kind
	capacity int
	used     int
	regions  []*Region
	obs      PutObserver
}

// PutObserver sees every host- or device-side Put into an observed bank.
// The mcu journal uses it to log nonvolatile writes during a recording run;
// a nil observer costs one predictable branch per Put.
type PutObserver interface {
	OnPut(r *Region, i int, v int64)
}

// New returns a memory bank of the given kind and byte capacity.
func New(kind Kind, capacityBytes int) *Memory {
	return &Memory{kind: kind, capacity: capacityBytes}
}

// Kind returns the memory technology.
func (m *Memory) Kind() Kind { return m.kind }

// Capacity returns the bank's size in bytes.
func (m *Memory) Capacity() int { return m.capacity }

// Used returns allocated bytes.
func (m *Memory) Used() int { return m.used }

// Free returns unallocated bytes.
func (m *Memory) Free() int { return m.capacity - m.used }

// Region is a named, word-addressed allocation. Words are int64 in the
// simulation (so device kernels can hold exact wide accumulators); ElemBytes records the *modelled* element width (2 for Q15
// weights/activations, 4 for wide accumulators) used in capacity
// accounting.
type Region struct {
	Name      string
	ElemBytes int
	mem       *Memory
	kind      Kind // copy of mem.kind, so Kind() avoids the pointer chase
	words     []int64
	obs       PutObserver

	// dirty records whether the region may have been written since the
	// last Snapshot.RestoreInPlace over its bank. Every write path sets it
	// — Put, SetRange, ClearVolatile, and Words (which hands out a
	// writable slice, so it must assume the worst) — while the read-only
	// ROWords view does not, which is what lets a pooled fleet device skip
	// its weight tables entirely on re-provisioning: kernels only ever
	// read them through ROWords, so they stay clean.
	dirty bool

	// shadow and shadowIdx cache the region's entry in the WAR Shadow
	// that last looked it up, sparing each tracked access a map lookup.
	shadow    *Shadow
	shadowIdx int32
}

// Alloc reserves a region of n words of elemBytes each, or fails if the
// bank lacks capacity.
func (m *Memory) Alloc(name string, n, elemBytes int) (*Region, error) {
	if n < 0 || elemBytes <= 0 {
		return nil, fmt.Errorf("mem: invalid allocation %q: %d x %dB", name, n, elemBytes)
	}
	bytes := n * elemBytes
	if m.used+bytes > m.capacity {
		return nil, fmt.Errorf("mem: %s out of memory allocating %q: need %dB, %dB free",
			m.kind, name, bytes, m.Free())
	}
	m.used += bytes
	r := &Region{Name: name, ElemBytes: elemBytes, mem: m, kind: m.kind, words: make([]int64, n), obs: m.obs}
	m.regions = append(m.regions, r)
	return r, nil
}

// SetObserver installs (or with nil removes) a Put observer on the bank and
// every region it has handed out; regions allocated later inherit it. Only
// a FRAM bank may be observed: SRAM contents die at every brown-out, so no
// journal needs them, and the SRAM kernels (LEA, TAILS's scratch) write raw
// words with no observer fallback. Installing one on another bank panics.
func (m *Memory) SetObserver(o PutObserver) {
	if o != nil && m.kind != FRAM {
		panic(fmt.Sprintf("mem: Put observer on a %s bank; only FRAM is observed", m.kind))
	}
	m.obs = o
	for _, r := range m.regions {
		r.obs = o
	}
}

// Observed reports whether a Put observer is installed on the bank. Fused
// bulk kernels write raw backing words and must stay off banks an
// observer is watching.
func (m *Memory) Observed() bool { return m.obs != nil }

// IndexOf returns r's position in the bank's live region list, or -1. The
// index is stable while no region is released, which lets a recording keyed
// by index be replayed onto a structurally identical bank.
func (m *Memory) IndexOf(r *Region) int {
	for i, reg := range m.regions {
		if reg == r {
			return i
		}
	}
	return -1
}

// RegionAt returns the i-th live region.
func (m *Memory) RegionAt(i int) *Region { return m.regions[i] }

// Regions returns the number of live regions.
func (m *Memory) Regions() int { return len(m.regions) }

// MustAlloc is Alloc that panics on failure; for fixed-size runtime
// metadata whose fit is a program invariant.
func (m *Memory) MustAlloc(name string, n, elemBytes int) *Region {
	r, err := m.Alloc(name, n, elemBytes)
	if err != nil {
		panic(err)
	}
	return r
}

// Release frees a region's reservation. The region must belong to m.
func (m *Memory) Release(r *Region) {
	for i, reg := range m.regions {
		if reg == r {
			m.used -= len(r.words) * r.ElemBytes
			m.regions = append(m.regions[:i], m.regions[i+1:]...)
			r.mem = nil
			return
		}
	}
	panic(fmt.Sprintf("mem: freeing region %q not in %s", r.Name, m.kind))
}

// Reset releases all regions.
func (m *Memory) Reset() {
	for _, r := range m.regions {
		r.mem = nil
	}
	m.regions = nil
	m.used = 0
}

// ClearVolatile zeroes every region if the bank is SRAM (power failure
// semantics); FRAM banks are untouched.
func (m *Memory) ClearVolatile() {
	if m.kind != SRAM {
		return
	}
	for _, r := range m.regions {
		r.dirty = true
		for i := range r.words {
			r.words[i] = 0
		}
	}
}

// Released reports whether the region has been released from its bank
// (Release or Reset); a released region must not be accessed again.
func (r *Region) Released() bool { return r.mem == nil }

// Kind returns the memory technology holding this region.
func (r *Region) Kind() Kind { return r.kind }

// Len returns the region's word count.
func (r *Region) Len() int { return len(r.words) }

// Get reads word i without energy accounting (host-side inspection only;
// device code must go through mcu.Device which charges access energy).
func (r *Region) Get(i int) int64 { return r.words[i] }

// Put writes word i without energy accounting (host-side initialization,
// e.g. placing weights at deploy time).
func (r *Region) Put(i int, v int64) {
	if r.obs != nil {
		r.obs.OnPut(r, i, v)
	}
	r.dirty = true
	r.words[i] = v
}

// Words exposes the raw storage for host-side bulk initialization and for
// the device model's fused kernels, which operate on the backing slice
// directly after charging the whole loop (see internal/kern). The slice is
// writable, so the region is conservatively marked dirty; code that only
// reads should use ROWords instead.
func (r *Region) Words() []int64 {
	r.dirty = true
	return r.words
}

// ROWords exposes the raw storage for read-only access — fused kernels'
// source operands, weight tables, host-side inspection. Callers must not
// write through it: writes would evade the dirty tracking that
// Snapshot.RestoreInPlace relies on to skip untouched regions.
func (r *Region) ROWords() []int64 { return r.words }

// Dirty reports whether the region may have been written since it was
// allocated or last restored by RestoreInPlace, whichever came later.
// Provisioning observability and tests only.
func (r *Region) Dirty() bool { return r.dirty }

// Observed reports whether a PutObserver is attached. Bulk writers that
// bypass Put (fused kernels writing through Words) must check it and
// route stores through Put/SetRange instead, so the observer still sees
// every write.
func (r *Region) Observed() bool { return r.obs != nil }

// SetRange writes vs into words [i, i+len(vs)) with the same observer
// semantics as len(vs) ascending Put calls.
func (r *Region) SetRange(i int, vs []int64) {
	r.dirty = true
	if r.obs != nil {
		for j, v := range vs {
			r.obs.OnPut(r, i+j, v)
			r.words[i+j] = v
		}
		return
	}
	copy(r.words[i:], vs)
}
