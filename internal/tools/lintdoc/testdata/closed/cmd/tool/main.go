// Command tool is the fixture's program.
package main

import "example.com/closed/internal/a"

func main() { println(a.Shape{N: 2}.Area()) }
