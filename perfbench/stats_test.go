package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	values := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: percentile must sort
		}
		return v
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
		at float64 // expected value when ok
	}{
		{1000, 0.99, true, 990}, // rank 990 of 1000 leaves 10 beyond
		{999, 0.99, false, 0},   // only 9 beyond
		{100, 0.90, true, 90},   // rank 90 of 100 leaves 10 beyond
		{99, 0.90, false, 0},    // only 9 beyond
		{21, 0.50, true, 11},    // median of 21 is the 11th
		{20, 0.50, true, 10},    // nearest rank: ceil(10) = 10th
		{11, 0.0, true, 1},      // p0 is the minimum
		{10, 0.0, false, 0},     // even the minimum needs 10 beyond
		{0, 0.5, false, 0},      // no samples
		{1000, 1.5, false, 0},   // p outside [0,1]
	} {
		got, err := percentile(values(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%v): err = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.at {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", tc.n, tc.p, got, tc.at)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %v, want 0.25", got)
	}
}

// A batched call's duration is every carried frame's latency: frame-level
// percentiles weigh a batch by its size.
func TestAttributeChargesTheWholeCallToEveryFrame(t *testing.T) {
	var frames []float64
	frames = attribute(frames, 100, 1)
	frames = attribute(frames, 3200, 32)
	if len(frames) != 33 {
		t.Fatalf("%d frames recorded, want 33", len(frames))
	}
	if frames[0] != 100 {
		t.Errorf("single-frame call recorded %v, want 100", frames[0])
	}
	for i, v := range frames[1:] {
		if v != 3200 {
			t.Fatalf("batched frame %d recorded %v, want the call's 3200", i, v)
		}
	}
	p50, err := percentile(append([]float64(nil), frames[:22]...), 0.5)
	if err != nil || p50 != 3200 {
		t.Errorf("p50 over frames = %v (%v), want 3200: most frames waited for the batch", p50, err)
	}
	if got := attribute(nil, 5, 0); len(got) != 0 {
		t.Errorf("empty call recorded %d frames", len(got))
	}
	if m := mean(frames); math.Abs(m-(100+32*3200)/33.0) > 1e-9 {
		t.Errorf("mean per frame %v", m)
	}
}
