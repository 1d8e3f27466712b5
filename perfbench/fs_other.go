//go:build !linux

package main

// fsType names the filesystem holding dir where statfs is unavailable.
func fsType(string) string { return "unknown" }
