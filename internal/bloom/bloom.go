// Package bloom implements the Bloom filters the Log and NVM-Log engines
// attach to SSTables and immutable MemTables (§3.3, §4.3) to avoid
// unnecessary index look-ups when reconstructing tuples from LSM runs.
package bloom

import "encoding/binary"

// Filter is a Bloom filter over uint64 keys.
type Filter struct {
	bits []uint64
	k    int
}

// MaxK is the most hash probes per key a filter uses: a marshalled filter
// claiming more did not come from New.
const MaxK = 30

// New creates a filter sized for n keys at roughly the given bits-per-key
// budget (10 bits/key ≈ 1% false-positive rate).
func New(n int, bitsPerKey int) *Filter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 10
	}
	m := n * bitsPerKey
	if m < 64 {
		m = 64
	}
	k := bitsPerKey * 69 / 100 // ln 2 ≈ 0.69 hash functions per bit
	if k < 1 {
		k = 1
	}
	if k > MaxK {
		k = MaxK
	}
	return &Filter{bits: make([]uint64, (m+63)/64), k: k}
}

// Build returns a filter sized for n keys at 10 bits a key that holds keys:
// the filter every run of the log-structured engines carries.
func Build(n int, keys []uint64) *Filter {
	f := New(n, 10)
	for _, k := range keys {
		f.Add(k)
	}
	return f
}

// mix is a 64-bit finalizer (splitmix64) used to derive the k probe
// positions via double hashing.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	h1 := mix(key)
	h2 := mix(key ^ 0x9e3779b97f4a7c15)
	m := uint64(len(f.bits) * 64)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain reports whether key was possibly added. False positives are
// possible; false negatives are not.
func (f *Filter) MayContain(key uint64) bool {
	h1 := mix(key)
	h2 := mix(key ^ 0x9e3779b97f4a7c15)
	m := uint64(len(f.bits) * 64)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Marshal serializes the filter (k, then the bit words, little-endian).
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8+len(f.bits)*8)
	binary.LittleEndian.PutUint64(out, uint64(f.k))
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(out[8+i*8:], w)
	}
	return out
}

// Unmarshal reconstructs a filter produced by Marshal.
func Unmarshal(b []byte) *Filter {
	if len(b) < 16 || len(b)%8 != 0 {
		return New(1, 10)
	}
	f := &Filter{k: int(binary.LittleEndian.Uint64(b))}
	f.bits = make([]uint64, (len(b)-8)/8)
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(b[8+i*8:])
	}
	return f
}

// SizeBytes returns the marshalled size.
func (f *Filter) SizeBytes() int { return 8 + len(f.bits)*8 }

// K returns the number of hash probes per key.
func (f *Filter) K() int { return f.k }

// Probes visits the k bit positions for key in a filter of mbits bits,
// stopping early if fn returns false. External storage (e.g. a filter kept
// in NVM) can test membership without materializing a Filter.
func Probes(key uint64, k int, mbits uint64, fn func(bit uint64) bool) {
	h1 := mix(key)
	h2 := mix(key ^ 0x9e3779b97f4a7c15)
	for i := 0; i < k; i++ {
		if !fn((h1 + uint64(i)*h2) % mbits) {
			return
		}
	}
}
