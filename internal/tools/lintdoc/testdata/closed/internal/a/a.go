// Package a is the closed-surface fixture.
package a

import "errors"

// ErrGone is a sentinel no other package selects.
var ErrGone = errors.New("gone")

// Shape is named only by Measure's signature.
type Shape struct {
	N int
	U Unit
	s Secret
}

// Measure is selected only by another package's test.
func Measure(s Shape) int { return s.N }

// Local is selected only inside package a.
func Local() int { return 1 }

// Unit is named only by Shape's exported field.
type Unit int

// Secret is named only by Shape's unexported field.
type Secret int

// Limit is a constant used only inside package a.
const Limit = 3

func use() int { return Local() + Measure(Shape{}) + Limit }
