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

// Wide is selected only by a non-test file of the nested bench module.
func Wide() int { return 2 }

// Kept is selected by no other package, and allowed.
func Kept() int { return 4 }

// Local is selected only inside package a.
func Local() int { return 1 }

// Unit is named only by Shape's exported field.
type Unit int

// Secret is named only by Shape's unexported field.
type Secret int

// Limit is a constant used only inside package a.
const Limit = 3

func use() int { return Local() + Measure(Shape{}) + Limit + Kept() }

// Double is an exported method only a test calls.
func (u Unit) Double() Unit { return 2 * u }

// Area is an exported method the fixture's program calls.
func (s Shape) Area() int { return s.N * s.N }
