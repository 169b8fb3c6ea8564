package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9000, 0.99}, {10000, 0.999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeIgnoresOneBurst(t *testing.T) {
	s := summarize([]float64{100, 101, 99, 100, 400, 102})
	if s.Median != 100.5 || s.Min != 99 || s.Max != 400 || s.N != 6 || len(s.Windows) != 6 {
		t.Errorf("summarize = %+v, want median 100.5 of 6 in [99, 400]", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 {
		t.Errorf("odd-length median = %v, want 2", s.Median)
	}
}

// ramp returns n samples 1..n.
func ramp(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	return s
}

func TestWindowQuantile(t *testing.T) {
	// Thick series: every sub-window supports p99 on its own, and the value
	// is the median of the six sub-window p99s.
	thick := [][]uint32{ramp(1000), ramp(2000), ramp(1000), ramp(2000), ramp(1000), ramp(2000)}
	if s := windowQuantile(thick, 0.99, 1); s.Median != (990+1980)/2 || s.Min != 990 || s.Max != 1980 || s.N != 9000 || len(s.Windows) != 6 {
		t.Errorf("thick p99 = %+v", s)
	}
	// Thin series: 400 samples a sub-window leave 4 beyond p99; three merged
	// leave 12, so the six windows become two groups.
	thin := [][]uint32{ramp(400), ramp(400), ramp(400), ramp(400), ramp(400), ramp(400)}
	s := windowQuantile(thin, 0.99, 1)
	if s.Min != s.Max || s.Median != 396 || s.N != 2400 {
		t.Errorf("thin p99 = %+v, want 396 from two groups of 1200", s)
	}
	// The same series supports its median window by window.
	if s := windowQuantile(thin, 0.5, 1); s.Median != 200 {
		t.Errorf("thin p50 = %+v, want 200", s)
	}
	// Too thin even pooled: still one value, from the pool.
	if s := windowQuantile([][]uint32{ramp(10), ramp(10)}, 0.99, 1); s.Median != 10 || s.N != 20 {
		t.Errorf("pooled p99 = %+v", s)
	}
	if s := windowQuantile([][]uint32{nil, nil}, 0.99, 1); s.Median != 0 || s.N != 0 {
		t.Errorf("empty series = %+v", s)
	}
}

func TestHopSelfFromSyntheticSpans(t *testing.T) {
	// A client call of 100 µs whose proxy span is 70 µs, which fans out to a
	// 30 µs node and a 50 µs node: the proxy waits for the slower one.
	tr := newTracer()
	b := tr.buf()
	us := func(h hop, src uint16, d int64) {
		b.add(span{Hop: h, Verb: opBatch, Src: src, Start: 0, End: d * 1000})
	}
	for i := 0; i < 101; i++ {
		us(hopClient, 0, 100)
		us(hopProxy, 0, 70)
		us(hopNode, 0, 30)
		us(hopNode, 1, 50)
	}
	p50 := func(h hop, src uint16) float64 {
		return quantile(tr.collect(func(s span) bool { return s.Hop == h && s.Src == src }), 0.5) / 1e3
	}
	if got := hopSelf(p50(hopClient, 0), p50(hopProxy, 0)); got != 30 {
		t.Errorf("client self = %v µs, want 30", got)
	}
	if got := hopSelf(p50(hopProxy, 0), p50(hopNode, 0), p50(hopNode, 1)); got != 20 {
		t.Errorf("proxy self = %v µs, want 20", got)
	}
	if got := hopSelf(10, 30); got != 0 {
		t.Errorf("self time below zero: %v", got)
	}
}
