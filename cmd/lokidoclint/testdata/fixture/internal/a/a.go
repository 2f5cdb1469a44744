// Package a declares one identifier for each list of the -unreached gate,
// and one that none may list.
package a

// Uncalled is named only by a test: unreached.
func Uncalled() {}

// Shape is named by the consumer.
type Shape interface{ Area() float64 }

// Box is named by the consumer.
type Box struct {
	W     float64 // set here, read by the consumer
	Depth float64 // read by the consumer, never set: never-set
	Seen  bool    `json:"seen"` // only a JSON decoder would set it: never-set
}

// Area is reached only through Shape, so no list may name it.
func (b Box) Area() float64 { return b.W * b.Depth }

// Helper is named only by this package: package-local.
func Helper() float64 { return 1 }

// New is named by the consumer.
func New(w float64) Box { return Box{W: w * Helper()} }
