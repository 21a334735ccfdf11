// Package stats provides the small statistical toolkit the experiment
// harness uses: summary statistics over trial series, log-log slope fitting
// for growth-exponent estimation (is it T∞ or T∞²?), and markdown table
// rendering for EXPERIMENTS.md.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes summary statistics; it panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(s.Std / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Ints converts an integer series to float64.
func Ints[T ~int | ~int64 | ~int32](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// LogLogSlope fits y = a·x^b by least squares on (log x, log y) and returns
// the exponent b. Pairs with non-positive coordinates are skipped. It
// returns NaN when fewer than two usable points remain.
//
// This is how the experiments check growth shapes: a deviation count that is
// Θ(T∞²) fits slope ≈ 2 against T∞; Θ(t·T∞) fits slope ≈ 1 against t.
func LogLogSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: LogLogSlope length mismatch %d vs %d", len(xs), len(ys)))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	return Slope(lx, ly)
}

// Slope returns the least-squares slope of y against x.
func Slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Table renders rows as a GitHub-flavored markdown table.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// Add appends a row; values are formatted with %v, floats with %.3g.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table in markdown.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	sb.WriteString("|" + strings.Join(sep, "|") + "|\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return sb.String()
}
