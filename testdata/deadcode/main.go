// Command fixture holds one declaration for each edge of the rule
// TestEveryDeclarationHasACaller enforces.
package main

import "fmt"

func main() {
	var b box[int]
	b.put(1)
	fmt.Println(name("x"), b.v)
}

// unused has no caller.
func unused() {}

// countdown calls only itself.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// onlyTested has a caller in a test file only.
func onlyTested() int { return 1 }

// name's String is called only through fmt.Stringer.
type name string

func (n name) String() string { return "name " + string(n) }

// box's put is reached only through box[int].
type box[T any] struct{ v T }

func (b *box[T]) put(v T) { b.v = v }
