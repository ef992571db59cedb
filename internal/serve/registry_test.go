package serve

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ml4all"
	"ml4all/internal/data"
	"ml4all/internal/fault"
	"ml4all/internal/linalg"
)

func testModel(task data.TaskKind, w ...float64) *ml4all.Model {
	return &ml4all.Model{
		Name: "scratch", Task: task, PlanName: "BGD(eager)",
		Weights: linalg.Vector(w), Iterations: 42, TrainTime: 1.5, Converged: true,
	}
}

func TestRegistryPublishGetDelete(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	v1, err := reg.Publish("spam", testModel(data.TaskSVM, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Publish("spam", testModel(data.TaskSVM, 4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v2.Version != 2 {
		t.Fatalf("versions %d, %d; want 1, 2", v1.Version, v2.Version)
	}

	latest, ok := reg.Get("spam", 0)
	if !ok || latest.Version != 2 {
		t.Fatalf("latest = %+v, %v", latest, ok)
	}
	old, ok := reg.Get("spam", 1)
	if !ok || old.Model.Weights[0] != 1 {
		t.Fatalf("spam@1 = %+v, %v", old, ok)
	}
	if _, ok := reg.Get("spam", 9); ok {
		t.Fatal("spam@9 must not resolve")
	}
	if _, ok := reg.Get("nope", 0); ok {
		t.Fatal("unknown model must not resolve")
	}

	// Deleting the latest promotes the previous version.
	if err := reg.Delete("spam", 2); err != nil {
		t.Fatal(err)
	}
	latest, ok = reg.Get("spam", 0)
	if !ok || latest.Version != 1 {
		t.Fatalf("after delete, latest = %+v, %v", latest, ok)
	}
	// Version numbers are never reused: a client that pinned spam@2 must
	// never silently receive a different model under those coordinates.
	v3, err := reg.Publish("spam", testModel(data.TaskSVM, 7, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version != 3 {
		t.Fatalf("republish got version %d, want 3 (v2 is burned)", v3.Version)
	}
	if _, ok := reg.Get("spam", 2); ok {
		t.Fatal("deleted spam@2 must not resolve")
	}
	if err := reg.Delete("spam", 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("spam", 0); ok {
		t.Fatal("deleted model must not resolve")
	}
	if err := reg.Delete("spam", 0); err == nil {
		t.Fatal("deleting a deleted model must error")
	}
	// ...and the whole-model delete burns its numbers too.
	v4, err := reg.Publish("spam", testModel(data.TaskSVM, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v4.Version != 4 {
		t.Fatalf("post-wipe publish got version %d, want 4", v4.Version)
	}
}

func TestRegistryReload(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := testModel(data.TaskLogisticRegression, 0.25, -1.0/3.0, 0, 8e17)
	if _, err := reg.Publish("m", want); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("m", testModel(data.TaskLogisticRegression, 9)); err != nil {
		t.Fatal(err)
	}
	// A stray temp file (a crashed publish) must not confuse the reload.
	if err := os.WriteFile(filepath.Join(dir, "m", ".tmp-v000003.model"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The crashed-publish residue is swept, not just ignored: leaking one
	// temp per crash would grow the directory forever.
	if _, err := os.Stat(filepath.Join(dir, "m", ".tmp-v000003.model")); !os.IsNotExist(err) {
		t.Fatalf("stale registry temp survived reload: %v", err)
	}
	got, ok := reg2.Get("m", 1)
	if !ok {
		t.Fatal("m@1 lost across reload")
	}
	if !got.Model.Weights.Equal(want.Weights, 0) {
		t.Fatalf("weights changed across reload:\n got %v\nwant %v", got.Model.Weights, want.Weights)
	}
	if got.Model.Task != want.Task || got.Model.Iterations != want.Iterations ||
		got.Model.Converged != want.Converged || got.Model.TrainTime != want.TrainTime {
		t.Fatalf("metadata changed across reload: %+v", got.Model)
	}
	if latest, _ := reg2.Get("m", 0); latest.Version != 2 {
		t.Fatalf("latest after reload = %d, want 2", latest.Version)
	}
	if names := reg2.Names(); len(names) != 1 || names[0] != "m" {
		t.Fatalf("names after reload = %v", names)
	}

	// Burned version numbers survive a restart: delete the latest, reopen,
	// republish — the tombstone keeps v2 off limits.
	if err := reg2.Delete("m", 2); err != nil {
		t.Fatal(err)
	}
	reg3, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg3.Get("m", 2); ok {
		t.Fatal("deleted m@2 resurrected across reload")
	}
	v, err := reg3.Publish("m", testModel(data.TaskLogisticRegression, 7))
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 3 {
		t.Fatalf("publish after reload got version %d, want 3", v.Version)
	}
}

// TestRegistryDeleteFailureKeepsMemoryWithDisk: a whole-model Delete whose
// second tombstone rename fails has already entombed v1 on disk; memory must
// drop it too, so Get serves exactly what a restart would load.
func TestRegistryDeleteFailureKeepsMemoryWithDisk(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1, 2} {
		if _, err := reg.Publish("m", testModel(data.TaskSVM, w)); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh injector counts from zero: the open renames nothing, so hit 1
	// is Delete's second tombstone rename.
	faulty, err := OpenRegistry(dir, fault.New(fault.Fault{Point: "registry.rename", Kind: fault.KindErr, After: 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.Delete("m", 0); err == nil {
		t.Fatal("Delete succeeded through an injected rename error")
	}
	reloaded, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	versions := func(r *Registry) []int {
		var vs []int
		for _, mv := range r.Versions("m") {
			vs = append(vs, mv.Version)
		}
		return vs
	}
	if mem, disk := versions(faulty), versions(reloaded); !slices.Equal(mem, disk) {
		t.Fatalf("after the failed Delete memory holds %v, disk %v", mem, disk)
	}
	if _, ok := faulty.Get("m", 1); ok {
		t.Fatal("m@1 still served after its tombstone landed")
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", "..", ".hidden", "sp ace", "x\x00y"} {
		if _, err := reg.Publish(name, testModel(data.TaskSVM, 1)); err == nil {
			t.Fatalf("name %q must be rejected", name)
		}
	}
}
