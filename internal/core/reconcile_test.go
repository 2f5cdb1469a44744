package core

import (
	"testing"

	"loki/internal/profiles"
)

// The differential test against the claim loop the Reconciler replaced runs it
// bare and inside both engines: internal/cluster/placement_test.go.

// A spec naming a class the pool does not have is left unplaced, as the scan
// the Reconciler replaced never found a worker for it.
func TestReconcilerIgnoresUnknownClass(t *testing.T) {
	r := NewReconciler([]profiles.Class{{Name: "a", Count: 2}, {Name: "b", Count: 3}})
	specs := []WorkerSpec{{ID: 0, Class: 2}, {ID: 1, Class: -1}, {ID: 2, Class: 1}}
	if got := r.Reconcile(specs); len(got) != 1 || got[0] != 2 || r.Held(2) != &specs[2] {
		t.Fatalf("touched %v, worker 2 holds %+v; want only spec 2, on worker 2", got, r.Held(2))
	}
}
