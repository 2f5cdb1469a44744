// Command fixture is the consumer the -unreached gate's test runs over.
package main

import "fixture/internal/a"

func main() {
	var b a.Box = a.New(2)
	var s a.Shape = b
	println(s.Area(), b.W, b.Depth, b.Seen)
}
