package main

import "testing"

// TestSelfCheck runs the checks every benchmark invocation starts with.
func TestSelfCheck(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
}
