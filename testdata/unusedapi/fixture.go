// Package fixture is the root package of a small module the unused-API
// scan is tested on. It plays the facade: it re-exports lib.Thing.
package fixture

import (
	"sort"

	"fixture/internal/lib"
)

// Thing is re-exported, so its methods are API though nothing calls them.
type Thing = lib.Thing

// Shape is re-exported too, but an alias does not consume an interface.
type Shape = lib.Shape

// Run references what the scan must see as used.
func Run(names []string) error {
	lib.Used()
	sort.Sort(lib.ByName(names))
	_ = lib.Measure(lib.Box{}) + len(lib.Describe(lib.Person{})+lib.Person{}.Name())
	c := lib.Config{Used: len(names)}
	if c.Used == 0 {
		return nil
	}
	return lib.ErrBad{}
}
