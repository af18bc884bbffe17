//go:build race

package racetest

func init() { enabled = true }
