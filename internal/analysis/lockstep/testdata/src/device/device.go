// Package device stubs the repo's simulated device: the type name, the
// ID field and the package-path suffix are what lockstep matches on.
package device

type Device struct {
	ID      int
	Machine int
}
