// Package stats provides the measurement machinery the architecture depends
// on: exact and streaming delay statistics (the paper reports means and
// 99.9th-percentile delays), exponentially weighted averages (FIFO+ class
// averages), and windowed rate/delay meters (the Section 9 measurement-based
// admission control needs "consistently conservative estimates" of link
// utilization and per-class delay).
package stats

import (
	"math"
	"slices"
	"sort"
)

// Recorder accumulates a sample set and answers exact order statistics.
// It keeps every sample; a 10-minute paper run is ~50k samples per flow,
// which is cheap. For unbounded runs use P2Quantile instead.
//
// The sample slice is a stack of sorted runs followed by an unsorted tail
// of samples added since the last query. A query sorts only the tail into
// a new run, then merges adjacent runs while the left one is at most twice
// the right: run lengths then shrink geometrically, so there are O(log n)
// runs and each sample takes part in O(log n) merges over its life.
// Percentile answers by exact rank selection across the runs, so a live
// read of a growing flow costs amortized O(new samples · log n), not
// O(all samples).
type Recorder struct {
	samples []float64
	ends    []int // run i is samples[ends[i-1]:ends[i]] (ends[-1] = 0)
	sum     float64
	sumsq   float64
	max     float64
	min     float64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{min: math.Inf(1), max: math.Inf(-1)}
}

// NewRecorderSize returns an empty recorder with storage preallocated for
// capHint samples, so a run of known length (expected packet count) grows
// the sample slice exactly once.
func NewRecorderSize(capHint int) *Recorder {
	r := NewRecorder()
	if capHint > 0 {
		r.samples = make([]float64, 0, capHint)
	}
	return r
}

// Reserve grows sample storage so at least n total samples fit without
// reallocation.
func (r *Recorder) Reserve(n int) {
	if extra := n - cap(r.samples); extra > 0 {
		r.samples = slices.Grow(r.samples, n-len(r.samples))
	}
}

// Add records one sample.
func (r *Recorder) Add(x float64) {
	r.samples = append(r.samples, x)
	r.sum += x
	r.sumsq += x * x
	if x > r.max {
		r.max = x
	}
	if x < r.min {
		r.min = x
	}
}

// Absorb merges every sample of src into r in one bulk append (recorders
// are merged when aggregating per-flow statistics into per-class or
// per-experiment views). src is unchanged.
func (r *Recorder) Absorb(src *Recorder) {
	if src == nil || len(src.samples) == 0 {
		return
	}
	r.samples = append(r.samples, src.samples...)
	r.sum += src.sum
	r.sumsq += src.sumsq
	if src.max > r.max {
		r.max = src.max
	}
	if src.min < r.min {
		r.min = src.min
	}
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the sample mean, or 0 with no samples.
func (r *Recorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / float64(len(r.samples))
}

// Max returns the largest sample, or 0 with no samples.
func (r *Recorder) Max() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.max
}

// Min returns the smallest sample, or 0 with no samples.
func (r *Recorder) Min() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.min
}

// Stddev returns the population standard deviation.
func (r *Recorder) Stddev() float64 {
	n := float64(len(r.samples))
	if n == 0 {
		return 0
	}
	m := r.sum / n
	v := r.sumsq/n - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// settle sorts the tail added since the last query into a run (or onto
// the last run, when it starts at or above that run's maximum) and merges
// runs until each is more than twice the length of the run after it.
func (r *Recorder) settle() {
	n, sorted := len(r.samples), 0
	if k := len(r.ends); k > 0 {
		sorted = r.ends[k-1]
	}
	if sorted == n {
		return
	}
	tail := r.samples[sorted:]
	slices.Sort(tail)
	if sorted > 0 && !less(tail[0], r.samples[sorted-1]) {
		r.ends[len(r.ends)-1] = n
	} else {
		r.ends = append(r.ends, n)
	}
	for k := len(r.ends); k >= 2; k-- {
		lo := 0
		if k >= 3 {
			lo = r.ends[k-3]
		}
		mid, hi := r.ends[k-2], r.ends[k-1]
		if mid-lo > 2*(hi-mid) {
			break
		}
		mergeRuns(r.samples[lo:hi], mid-lo)
		r.ends[k-2] = hi
		r.ends = r.ends[:k-1]
	}
}

// mergeRuns merges the sorted runs s[:mid] and s[mid:] in place, from the
// back, through a buffer holding the right run.
func mergeRuns(s []float64, mid int) {
	if !less(s[mid], s[mid-1]) {
		return // already in order
	}
	right := slices.Clone(s[mid:])
	i, j := mid-1, len(right)-1
	for k := len(s) - 1; j >= 0; k-- {
		if i >= 0 && less(right[j], s[i]) {
			s[k] = s[i]
			i--
		} else {
			s[k] = right[j]
			j--
		}
	}
}

// Percentile returns the exact p-quantile (0 <= p <= 1) using the
// nearest-rank method on the sorted samples. With no samples it returns 0.
func (r *Recorder) Percentile(p float64) float64 {
	n := len(r.samples)
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return r.min
	case p >= 1:
		return r.max
	}
	rank := min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
	r.settle()
	return r.selectRank(rank)
}

// selectRank returns the sample of the given 0-based rank across the
// sorted runs. Each run keeps a window [lo, hi) still holding candidates;
// a pivot from the widest window is counted against every window by
// binary search (below it, and at or below it), and the windows are narrowed to the side of the pivot
// that holds the rank. Three rounds in four aim the pivot where the rank
// would fall if every window held the same distribution, which lands
// close on delay data; the fourth takes the middle of the widest window,
// dropping at least half of it, so the rounds stay O(runs · log n) on
// any data.
func (r *Recorder) selectRank(rank int) float64 {
	// Each run is more than twice the next, so there are at most
	// log2(n)+1 < 64 of them.
	var buf [64]struct{ lo, hi, below, upTo int }
	win := buf[:len(r.ends)]
	start := 0
	for i, end := range r.ends {
		win[i].lo, win[i].hi = start, end
		start = end
	}
	for round := 0; ; round++ {
		widest, total := 0, 0
		for i := range win {
			total += win[i].hi - win[i].lo
			if win[i].hi-win[i].lo > win[widest].hi-win[widest].lo {
				widest = i
			}
		}
		lo, hi := win[widest].lo, win[widest].hi
		pos := (lo + hi) / 2
		if round%4 != 3 { // rank-proportional pivot
			pos = lo + rank*(hi-lo)/total
		}
		v := r.samples[pos]
		below, upTo := 0, 0
		for i := range win {
			w := &win[i]
			run := r.samples[w.lo:w.hi]
			w.below, _ = slices.BinarySearch(run, v)
			w.upTo = sort.Search(len(run), func(h int) bool { return less(v, run[h]) })
			below += w.below
			upTo += w.upTo
		}
		switch {
		case rank < below:
			for i := range win {
				win[i].hi = win[i].lo + win[i].below
			}
		case rank < upTo:
			return v
		default:
			rank -= upTo
			for i := range win {
				win[i].lo += win[i].upTo
			}
		}
	}
}

// less orders floats as slices.Sort and slices.BinarySearch do: NaN
// before everything else.
func less(x, y float64) bool { return x < y || (x != x && y == y) }

// Welford is a streaming mean/variance accumulator (Welford's algorithm),
// for contexts where keeping samples is too expensive.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of samples.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the running population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }
