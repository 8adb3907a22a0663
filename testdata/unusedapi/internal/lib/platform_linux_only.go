//go:build linux

package lib

var _ = OnLinux
