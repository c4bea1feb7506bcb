package asha

import "repro/internal/searchspace"

// Config is a concrete hyperparameter assignment: parameter name to
// numeric value. It is the public, name-keyed compatibility view;
// internally configurations are dense vectors (searchspace.Config) and
// take this map form only at the objective and wire boundaries. The map
// an Objective receives is its worker slot's, valid for that call.
type Config = map[string]float64

// Param describes one hyperparameter of a search space.
type Param = searchspace.Param

// Space is an ordered collection of hyperparameters.
type Space = searchspace.Space

// NewSpace builds a search space from parameters. It panics if any
// parameter is invalid or duplicated.
func NewSpace(params ...Param) *Space { return searchspace.New(params...) }

// Uniform declares a continuous hyperparameter sampled uniformly on
// [lo, hi].
func Uniform(name string, lo, hi float64) Param {
	return Param{Name: name, Type: searchspace.Uniform, Lo: lo, Hi: hi}
}

// LogUniform declares a continuous hyperparameter whose logarithm is
// sampled uniformly on [log lo, log hi]. Bounds must be positive.
func LogUniform(name string, lo, hi float64) Param {
	return Param{Name: name, Type: searchspace.LogUniform, Lo: lo, Hi: hi}
}

// Int declares an integer hyperparameter sampled uniformly on
// {lo, ..., hi}.
func Int(name string, lo, hi int) Param {
	return Param{Name: name, Type: searchspace.IntUniform, Lo: float64(lo), Hi: float64(hi)}
}

// Choice declares a hyperparameter drawn from an ordered finite set of
// numeric values (ascending).
func Choice(name string, values ...float64) Param {
	return Param{Name: name, Type: searchspace.Choice, Choices: values}
}
