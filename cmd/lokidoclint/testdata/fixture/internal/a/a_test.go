package a

import "testing"

func TestUncalled(t *testing.T) { Uncalled() }
