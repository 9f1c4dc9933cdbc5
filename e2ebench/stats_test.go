package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1, 50, 1, true},
		{4, 50, 2, true}, // rank ceil(0.5*4) = 2: nearest rank, no interpolation
		{5, 50, 3, true},
		{100, 90, 90, true},   // 10 samples beyond rank 90
		{99, 90, 0, false},    // rank 90, only 9 beyond
		{100, 99, 0, false},   // 1 beyond
		{1000, 99, 990, true}, // 10 beyond
		{999, 99, 0, false},   // rank 990, 9 beyond
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestParseExposition(t *testing.T) {
	text := "# HELP x_total help\n# TYPE x_total counter\nx_total 3\n" +
		"y_total{daemon=\"a\",sub=\"b c\"} 2\ny_total{daemon=\"b\"} 5\n"
	got := parseExposition([]byte(text))
	if got["x_total"] != 3 || got["y_total"] != 7 {
		t.Fatalf("parsed %v", got)
	}
}
