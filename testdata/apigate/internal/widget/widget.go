// Package widget holds the internal type the fixture's root package aliases.
package widget

import "fmt"

// Widget has one method of each kind the gate tells apart.
type Widget struct{ n int }

// Called has a caller in the root package.
func (w Widget) Called() int { return w.n }

// Uncalled has no caller: the gate reports it, alias or not.
func (w Widget) Uncalled() int { return -w.n }

// String implements fmt.Stringer, an interface the program can see.
func (w Widget) String() string { return fmt.Sprint(w.n) }

// Reserved has no caller but a keep entry.
func (w Widget) Reserved() int { return 2 * w.n }
