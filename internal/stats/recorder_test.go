package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder()
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Min() != 0 || r.Percentile(0.5) != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.Count() != 5 {
		t.Fatalf("Count = %d", r.Count())
	}
	if r.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", r.Mean())
	}
	if r.Max() != 5 || r.Min() != 1 {
		t.Fatalf("Max/Min = %v/%v, want 5/1", r.Max(), r.Min())
	}
	if got := r.Stddev(); math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("Stddev = %v, want sqrt(2)", got)
	}
}

func TestRecorderPercentileNearestRank(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.999, 100}, {1, 100}, {0.25, 25},
	}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRecorderAddAfterPercentile(t *testing.T) {
	// Percentile sorts in place; adding afterwards must still work.
	r := NewRecorder()
	r.Add(3)
	r.Add(1)
	_ = r.Percentile(0.5)
	r.Add(2)
	if got := r.Percentile(1); got != 3 {
		t.Fatalf("Percentile(1) = %v, want 3", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Fatalf("Percentile(0) = %v, want 1", got)
	}
}

// Property: mean/max/min/percentile agree with direct computation on the
// sample slice.
func TestRecorderMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		r := NewRecorder()
		sum := 0.0
		for _, x := range clean {
			r.Add(x)
			sum += x
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		if r.Max() != sorted[len(sorted)-1] || r.Min() != sorted[0] {
			return false
		}
		if math.Abs(r.Mean()-sum/float64(len(clean))) > 1e-9*(1+math.Abs(sum)) {
			return false
		}
		return r.Percentile(0.5) == sorted[int(math.Ceil(0.5*float64(len(sorted))))-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMatchesRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRecorder()
	var w Welford
	for i := 0; i < 10000; i++ {
		x := rng.NormFloat64()*5 + 2
		r.Add(x)
		w.Add(x)
	}
	if math.Abs(r.Mean()-w.Mean()) > 1e-9 {
		t.Fatalf("means differ: %v vs %v", r.Mean(), w.Mean())
	}
	if math.Abs(r.Stddev()-w.Stddev()) > 1e-9 {
		t.Fatalf("stddevs differ: %v vs %v", r.Stddev(), w.Stddev())
	}
	if w.Count() != 10000 {
		t.Fatalf("Count = %d", w.Count())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("empty Welford should be zero")
	}
}

// nearestRank is the reference order statistic on sorted s.
func nearestRank(s []float64, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// checkRuns verifies the recorder's layout invariant: every run is sorted
// and more than twice the length of the run after it.
func checkRuns(t *testing.T, r *Recorder) {
	t.Helper()
	start, prev := 0, 0
	for i, end := range r.ends {
		if !sort.Float64sAreSorted(r.samples[start:end]) {
			t.Fatalf("run %d [%d,%d) not sorted", i, start, end)
		}
		if i > 0 && prev <= 2*(end-start) {
			t.Fatalf("run %d has %d samples after a run of %d", i, end-start, prev)
		}
		start, prev = end, end-start
	}
	if start != len(r.samples) {
		t.Fatalf("runs cover %d of %d samples after a query", start, len(r.samples))
	}
}

// Property: interleaved Add batches, Absorbs and queries, in shapes that
// hit every merge path (ascending tails that extend the last run,
// descending and tied batches, long runs of small batches that cascade),
// always answer the same nearest-rank order statistic as sorting a copy.
func TestRecorderLiveQueriesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ps := []float64{0, 0.5, 0.99, 0.999, 1}
	for trial := 0; trial < 20; trial++ {
		r := NewRecorder()
		var ref []float64
		deepest := 0
		for step := 0; step < 150; step++ {
			n := 1 + rng.Intn(1<<uint(rng.Intn(12)))
			batch := make([]float64, n)
			base, top := rng.Float64(), r.Max()
			for i := range batch {
				switch step % 5 {
				case 0: // random
					batch[i] = rng.ExpFloat64()
				case 1: // ascending from above everything so far
					batch[i] = top + 1 + float64(i)
				case 2: // descending
					batch[i] = base - float64(i)
				case 3: // all equal
					batch[i] = base
				case 4: // heavy ties
					batch[i] = float64(rng.Intn(4))
				}
			}
			if rng.Intn(4) == 0 {
				src := NewRecorder()
				for _, x := range batch {
					src.Add(x)
				}
				if rng.Intn(2) == 0 {
					src.Percentile(0.5) // absorb a source already laid out in runs
				}
				r.Absorb(src)
			} else {
				for _, x := range batch {
					r.Add(x)
				}
			}
			ref = append(ref, batch...)
			if rng.Intn(3) == 0 {
				continue // let several batches pile up in the tail
			}
			before := len(r.ends) + 1
			sorted := sortedCopy(ref)
			for _, p := range ps {
				if got, want := r.Percentile(p), nearestRank(sorted, p); got != want {
					t.Fatalf("trial %d step %d: Percentile(%v) = %v, want %v", trial, step, p, got, want)
				}
			}
			checkRuns(t, r)
			deepest = max(deepest, before-len(r.ends))
		}
		if r.Count() != len(ref) {
			t.Fatalf("Count = %d, want %d", r.Count(), len(ref))
		}
		if deepest < 3 {
			t.Fatalf("trial %d: deepest merge cascade folded %d runs, want >= 3", trial, deepest)
		}
	}
}

// NaN samples order first, as in sort.Float64s; queries over runs holding
// them still terminate and agree with sorting a copy.
func TestRecorderNaNSamples(t *testing.T) {
	r := NewRecorder()
	var ref []float64
	for b := 0; b < 20; b++ {
		for i := 0; i < 50; i++ {
			x := float64((b*7 + i) % 13)
			if i%9 == 0 {
				x = math.NaN()
			}
			r.Add(x)
			ref = append(ref, x)
		}
		sorted := sortedCopy(ref)
		for _, p := range []float64{0.01, 0.5, 0.99} {
			got, want := r.Percentile(p), nearestRank(sorted, p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("batch %d: Percentile(%v) = %v, want %v", b, p, got, want)
			}
		}
	}
}

// BenchmarkRecorderLiveQuantiles replays one paper-table3 flow as a live
// reader sees it: 51,000 delays (600 s of traffic) arriving in 425-sample
// batches (5 s steps), with the report's three percentiles queried after
// every batch.
func BenchmarkRecorderLiveQuantiles(b *testing.B) {
	const total, batch = 51_000, 425
	rng := rand.New(rand.NewSource(21))
	delays := make([]float64, total)
	for i := range delays {
		delays[i] = rng.ExpFloat64() * 2e-3
	}
	var sink float64
	for b.Loop() {
		r := NewRecorder()
		for i := 0; i < total; i += batch {
			for _, x := range delays[i : i+batch] {
				r.Add(x)
			}
			for _, p := range []float64{0.50, 0.99, 0.999} {
				sink += r.Percentile(p)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/sample")
	if sink == 0 {
		b.Fatal("no percentiles read")
	}
}
