package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// sketchSubBuckets is the number of log-linear sub-buckets per binary
// order of magnitude. A bucket's relative width runs from
// 1/(2·sketchSubBuckets) ≈ 0.39% at the top of an octave to
// 1/sketchSubBuckets ≈ 0.78% at its bottom, so any quantile read off
// the sketch is within 0.39% (half a bucket, midpoint rule) of some
// true sample — below the resolution the figures print at.
const sketchSubBuckets = 128

// keyBias shifts encoded magnitude keys away from zero so the sign of
// the encoded key is the sign of the value. Frexp exponents of float64
// fit in 11 bits, so |posKey| < 2^11·sketchSubBuckets ≪ keyBias.
const keyBias = 1 << 22

// Sketch is a mergeable log-linear quantile sketch: each finite sample
// increments one of a sparse set of constant-relative-width buckets, so
// a column's full CDF is recoverable to bucket resolution without
// retaining any samples. Merging adds bucket counts — commutative,
// associative, and exact in integers — so merged aggregates are
// byte-identical regardless of worker count, interleaving, or resume.
//
// Buckets are keyed by sign and magnitude: v = f·2^e (Frexp, f ∈
// [0.5, 1)) lands in sub-bucket s = ⌊(f−0.5)·2B⌋ of exponent e, encoded
// as ±(e·B + s + keyBias); zero and non-finite samples count separately.
// The encoding preserves order (more negative keys ↔ more negative
// values), so quantiles are a single ascending walk.
type Sketch struct {
	zero    uint64
	buckets map[int32]uint64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{buckets: make(map[int32]uint64)} }

// keyOf encodes a nonzero finite value's bucket.
func keyOf(v float64) int32 {
	neg := v < 0
	if neg {
		v = -v
	}
	f, e := math.Frexp(v)
	k := int32(e)*sketchSubBuckets + int32((f-0.5)*2*sketchSubBuckets) + keyBias
	if neg {
		return -k
	}
	return k
}

// minKey and maxKey bound |keyOf(v)| over every finite nonzero float64;
// a decoded key outside them names no bucket Add can fill.
var minKey, maxKey = int64(keyOf(math.SmallestNonzeroFloat64)), int64(keyOf(math.MaxFloat64))

// bucketMid returns the midpoint value of the bucket an encoded key
// names — the representative returned for quantiles falling in it.
func bucketMid(key int32) float64 {
	if key == 0 {
		return 0
	}
	sign := 1.0
	if key < 0 {
		sign, key = -1, -key
	}
	pk := key - keyBias
	e := pk / sketchSubBuckets
	s := pk % sketchSubBuckets
	if s < 0 { // floor division for negative exponents
		e--
		s += sketchSubBuckets
	}
	mid := 0.5 + (float64(s)+0.5)/(2*sketchSubBuckets)
	return sign * math.Ldexp(mid, int(e))
}

// Add folds one sample in. Zero and non-finite values land in the exact
// zero bucket.
func (s *Sketch) Add(v float64) {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		s.zero++
		return
	}
	if s.buckets == nil {
		s.buckets = make(map[int32]uint64)
	}
	s.buckets[keyOf(v)]++
}

// Merge adds o's counts into s.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	s.zero += o.zero
	if len(o.buckets) > 0 && s.buckets == nil {
		s.buckets = make(map[int32]uint64)
	}
	for k, c := range o.buckets {
		s.buckets[k] += c
	}
}

// Count is the total number of samples folded in.
func (s *Sketch) Count() uint64 {
	n := s.zero
	for _, c := range s.buckets {
		n += c
	}
	return n
}

// sortedKeys returns every occupied bucket key in ascending value
// order, with 0 standing in for the zero/non-finite bucket.
func (s *Sketch) sortedKeys() []int32 {
	keys := make([]int32, 0, len(s.buckets)+1)
	for k := range s.buckets {
		keys = append(keys, k)
	}
	if s.zero > 0 {
		keys = append(keys, 0)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (s *Sketch) countOf(key int32) uint64 {
	if key == 0 {
		return s.zero
	}
	return s.buckets[key]
}

// Quantile returns the q-th quantile (q in [0, 1]) as the midpoint of
// the bucket holding rank q·(n−1) — within half a bucket's relative
// width of the exact sample quantile. An empty sketch has no quantiles:
// it returns NaN.
func (s *Sketch) Quantile(q float64) float64 {
	n := s.Count()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n-1)
	var cum float64
	keys := s.sortedKeys()
	for _, k := range keys {
		cum += float64(s.countOf(k))
		if cum > rank {
			return bucketMid(k)
		}
	}
	return bucketMid(keys[len(keys)-1])
}

// CDFPoint is one step of the sketch's cumulative distribution.
type CDFPoint struct {
	Value float64
	P     float64
}

// CDF returns the sketch's cumulative distribution, one point per
// occupied bucket (value = bucket midpoint, P = fraction ≤ it), or nil
// for an empty sketch.
func (s *Sketch) CDF() []CDFPoint {
	n := s.Count()
	if n == 0 {
		return nil
	}
	keys := s.sortedKeys()
	out := make([]CDFPoint, len(keys))
	var cum uint64
	for i, k := range keys {
		cum += s.countOf(k)
		out[i] = CDFPoint{Value: bucketMid(k), P: float64(cum) / float64(n)}
	}
	return out
}

// sketchJSON is the stable wire form: zero count plus [key, count]
// pairs in ascending key order, so identical sketches marshal to
// identical bytes.
type sketchJSON struct {
	Zero    uint64     `json:"zero"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON emits the deterministic sparse form.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	js := sketchJSON{Zero: s.zero, Buckets: make([][2]int64, 0, len(s.buckets))}
	for _, k := range s.sortedKeys() {
		if k == 0 {
			continue
		}
		js.Buckets = append(js.Buckets, [2]int64{int64(k), int64(s.buckets[k])})
	}
	return json.Marshal(js)
}

// UnmarshalJSON restores the sparse form.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var js sketchJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	s.zero = js.Zero
	s.buckets = make(map[int32]uint64, len(js.Buckets))
	for _, kv := range js.Buckets {
		k := kv[0]
		if k < 0 {
			k = -k
		}
		if k < minKey || k > maxKey || kv[1] < 0 {
			return fmt.Errorf("campaign: invalid sketch bucket %v", kv)
		}
		if _, dup := s.buckets[int32(kv[0])]; dup {
			return fmt.Errorf("campaign: invalid sketch bucket %v: duplicate key", kv)
		}
		s.buckets[int32(kv[0])] = uint64(kv[1])
	}
	return nil
}
