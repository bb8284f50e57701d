// Command probe is the fixture's nested benchmark module.
package main

import "example.com/closed/internal/a"

func main() { _ = a.Wide() }
