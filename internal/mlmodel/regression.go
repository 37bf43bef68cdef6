// Package mlmodel implements the machine-learning performance models
// SCADS relies on (paper §1.1, §2.2, §3.3): predicting request-latency
// quantiles from load, estimating per-server capacity under an SLA,
// and forecasting near-future workload so the director can provision
// *before* requirements are violated. The model families — least
// squares regression, streaming quantile estimation, and a closed-form
// queueing curve — match the group's contemporaneous work the paper
// cites (Bodík et al., Ganapathi et al.).
package mlmodel

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the normal equations cannot be solved.
var ErrSingular = errors.New("mlmodel: singular design matrix")

// ErrNoData is returned when a model has insufficient observations.
var ErrNoData = errors.New("mlmodel: not enough observations")

// LinearRegression is an ordinary-least-squares model y = β·x + β0.
type LinearRegression struct {
	Coef      []float64 // feature coefficients
	Intercept float64
}

// FitLinear fits OLS on rows of features xs with targets ys, solving
// the normal equations by Gaussian elimination with partial pivoting.
func FitLinear(xs [][]float64, ys []float64) (*LinearRegression, error) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, ErrNoData
	}
	d := len(xs[0])
	for _, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("mlmodel: ragged feature rows")
		}
	}
	if n < d+1 {
		return nil, fmt.Errorf("%w: %d rows for %d parameters", ErrNoData, n, d+1)
	}

	// Build X'X (with intercept column) and X'y.
	dim := d + 1
	xtx := make([][]float64, dim)
	for i := range xtx {
		xtx[i] = make([]float64, dim)
	}
	xty := make([]float64, dim)
	row := make([]float64, dim) // augmented row [1, x...], refilled per sample
	row[0] = 1
	for r := 0; r < n; r++ {
		copy(row[1:], xs[r])
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * ys[r]
		}
	}
	beta, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}

	return &LinearRegression{Intercept: beta[0], Coef: beta[1:]}, nil
}

// Predict evaluates the model at feature vector x.
func (m *LinearRegression) Predict(x []float64) float64 {
	y := m.Intercept
	for i, c := range m.Coef {
		if i < len(x) {
			y += c * x[i]
		}
	}
	return y
}

// solve performs Gaussian elimination with partial pivoting on a copy
// of A, b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m[i][n] / m[i][i]
	}
	return out, nil
}
