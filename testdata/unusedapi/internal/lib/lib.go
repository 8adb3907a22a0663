// Package lib declares the names the scan's fixture test plants.
package lib

// Used is called by the root package.
func Used() {}

// Unused is referenced by nothing: the scan must flag it.
func Unused() {}

// OnLinux is referenced only by a file built on linux.
func OnLinux() {}

// OnDarwin is referenced only by a file built on darwin.
func OnDarwin() {}

// Config has one field the root package sets and one nothing touches.
type Config struct {
	Used  int
	Unset int
}

// ErrBad's Error is called only through the error interface.
type ErrBad struct{}

func (ErrBad) Error() string { return "bad" }

// ByName's methods are called only through sort.Interface.
type ByName []string

func (b ByName) Len() int           { return len(b) }
func (b ByName) Less(i, j int) bool { return b[i] < b[j] }
func (b ByName) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Thing is re-exported by the root package.
type Thing struct{}

// Extra is API through the root package's alias.
func (Thing) Extra() int { return 0 }

// Shape is only asserted and aliased: flagged, with Shape.Area and
// Square.Area, which nothing but Shape keeps alive.
type Shape interface{ Area() float64 }

var _ Shape = Square{}

type Square struct{}

func (Square) Area() float64 { return 1 }

// Sizer's Size is called through it, its Reset never: Sizer.Reset and
// Box.Reset are flagged, Box.Size is not.
type Sizer interface {
	Size() int
	Reset()
}

func Measure(s Sizer) int { return s.Size() }

type Box struct{}

func (Box) Size() int { return 1 }
func (Box) Reset()    {}

// Namer.Name is called only on Person, which implements Namer.
type Namer interface{ Name() string }

func Describe(Namer) string { return "a namer" }

type Person struct{}

func (Person) Name() string { return "p" }
