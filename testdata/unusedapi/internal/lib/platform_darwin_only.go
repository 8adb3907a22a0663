//go:build darwin

package lib

var _ = OnDarwin
