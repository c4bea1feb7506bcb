//go:build !race

package asha

const raceEnabled = false
