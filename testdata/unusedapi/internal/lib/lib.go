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
