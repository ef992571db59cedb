package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ml4all"
	"ml4all/internal/fault"
)

// Registry is the versioned model store: every published model lives on disk
// as name@version (one checksummed text file per version under dir/<name>/),
// with an in-memory index in front. Publishing is atomic and durable — the
// model is written to a temp name, fsynced, renamed into place, and the
// directory fsynced, so a concurrent reader (or a crash at any instruction)
// never observes a half-written model — and a version number is never reused
// within one registry directory: deletion leaves a tombstone file behind, so
// the high-water mark survives restarts and a client pinning name@version can
// never silently receive a different model under the same coordinates. A
// version whose file fails its checksum on load is entombed as
// ".corrupt-v*" (number stays burned) and the previous good version serves
// as latest; stranded ".tmp-*" files from mid-publish crashes are swept.
type Registry struct {
	dir string
	fs  fault.FS

	mu     sync.RWMutex
	models map[string][]*ModelVersion // per name, ascending by version
	highV  map[string]int             // per name, highest version ever assigned
}

// errNotFound marks lookup failures (vs I/O faults) so the HTTP layer can
// map them to 404 instead of 500.
var errNotFound = errors.New("not found")

// ModelVersion is one published model plus its registry coordinates.
type ModelVersion struct {
	Name    string
	Version int
	Path    string
	Model   *ml4all.Model
}

// versionFile renders the on-disk file name of a version.
func versionFile(v int) string { return fmt.Sprintf("v%06d.model", v) }

// tombstoneFile renders the file name a deleted version is renamed to. The
// tombstone keeps the version number burned even across restarts.
func tombstoneFile(v int) string { return fmt.Sprintf(".deleted-%s", versionFile(v)) }

// parseVersionFile inverts versionFile; ok is false for foreign files.
func parseVersionFile(name string) (int, bool) {
	rest, found := strings.CutPrefix(name, "v")
	rest, cut := strings.CutSuffix(rest, ".model")
	if !found || !cut {
		return 0, false
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v <= 0 {
		return 0, false
	}
	return v, true
}

// validName guards registry names: they become path components.
func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: invalid model name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	if name[0] == '.' {
		return fmt.Errorf("serve: invalid model name %q: must not start with a dot", name)
	}
	return nil
}

// OpenRegistry opens (creating if needed) a registry rooted at dir and loads
// every model version found there, so published models survive restarts.
// inj, when non-nil, injects faults on the filesystem seam (nil: the raw
// OS); counters receives corruption-fallback observations (nil: counted
// privately). Startup is where the crash-recovery work happens: stranded
// ".tmp-*" files from mid-publish crashes are removed, and any version that
// no longer loads — torn file, checksum mismatch — is entombed as
// ".corrupt-v*" (burning its number) so the previous good version serves as
// latest instead of the whole registry failing to open.
func OpenRegistry(dir string, inj *fault.Injector, counters *Counters) (*Registry, error) {
	if counters == nil {
		counters = newCounters()
	}
	fsys := fault.NewFS(inj, "registry")
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("serve: registry dir: %w", err)
	}
	r := &Registry{dir: dir, fs: fsys, models: map[string][]*ModelVersion{}, highV: map[string]int{}}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: registry dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || validName(e.Name()) != nil {
			continue
		}
		name := e.Name()
		files, err := fsys.ReadDir(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("serve: registry %s: %w", name, err)
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), ".tmp-") {
				// Residue of a crash between temp write and rename; the
				// version it was becoming was never published.
				fsys.Remove(filepath.Join(dir, name, f.Name()))
				continue
			}
			if rest, found := strings.CutPrefix(f.Name(), ".deleted-"); found {
				// Tombstone: the version number is burned, the model gone.
				if v, ok := parseVersionFile(rest); ok && v > r.highV[name] {
					r.highV[name] = v
				}
				continue
			}
			if rest, found := strings.CutPrefix(f.Name(), ".corrupt-"); found {
				// A version entombed by a previous open; still burned.
				if v, ok := parseVersionFile(rest); ok && v > r.highV[name] {
					r.highV[name] = v
				}
				continue
			}
			v, ok := parseVersionFile(f.Name())
			if !ok {
				continue // strays
			}
			if v > r.highV[name] {
				r.highV[name] = v
			}
			path := filepath.Join(dir, name, f.Name())
			m, err := r.loadVersion(path, name)
			if err != nil {
				if errors.Is(err, fault.ErrCrash) {
					// Simulated process death, not a bad file: die instead of
					// entombing a version that is merely unreadable right now.
					return nil, fmt.Errorf("serve: registry %s: %w", name, err)
				}
				// Corrupt version: entomb it (keeping the number burned) and
				// fall back — the previous good version becomes the latest.
				fsys.Rename(path, filepath.Join(dir, name, ".corrupt-"+f.Name()))
				counters.registryFallbacks.Add(1)
				continue
			}
			r.models[name] = append(r.models[name], &ModelVersion{Name: name, Version: v, Path: path, Model: m})
		}
		sort.Slice(r.models[name], func(i, j int) bool {
			return r.models[name][i].Version < r.models[name][j].Version
		})
		if len(r.models[name]) == 0 {
			delete(r.models, name)
		}
	}
	return r, nil
}

// loadVersion reads and verifies one model file through the injectable seam.
func (r *Registry) loadVersion(path, name string) (*ml4all.Model, error) {
	raw, err := r.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ml4all.DecodeModel(raw, path)
	if err != nil {
		return nil, err
	}
	m.Name = name
	return m, nil
}

// Publish persists m as the next version of name and makes it the latest.
// The write is atomic and durable: a checksummed temp file fsynced and
// renamed into its version slot, then the directory fsynced — a crash at any
// point leaves either the previous registry state (plus at worst a swept-at-
// startup temp file) or the complete new version.
func (r *Registry) Publish(name string, m *ml4all.Model) (*ModelVersion, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.highV[name] + 1
	ndir := filepath.Join(r.dir, name)
	if err := r.fs.MkdirAll(ndir); err != nil {
		return nil, fmt.Errorf("serve: publish %s: %w", name, err)
	}
	// Copy with the registry coordinates baked in, so the persisted file and
	// the served metadata agree.
	pub := *m
	pub.Name = name
	path := filepath.Join(ndir, versionFile(next))
	if err := fault.WriteDurable(r.fs, path, ml4all.EncodeModel(&pub)); err != nil {
		return nil, fmt.Errorf("serve: publish %s@%d: %w", name, next, err)
	}
	mv := &ModelVersion{Name: name, Version: next, Path: path, Model: &pub}
	r.models[name] = append(r.models[name], mv)
	r.highV[name] = next
	return mv, nil
}

// Get returns a model version; version 0 means the latest.
func (r *Registry) Get(name string, version int) (*ModelVersion, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vs := r.models[name]
	if len(vs) == 0 {
		return nil, false
	}
	if version == 0 {
		return vs[len(vs)-1], true
	}
	for _, mv := range vs {
		if mv.Version == version {
			return mv, true
		}
	}
	return nil, false
}

// Versions returns every version of a model, ascending.
func (r *Registry) Versions(name string) []*ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*ModelVersion(nil), r.models[name]...)
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for name := range r.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Delete removes one version of a model, or — with version 0 — the whole
// model. Removing the latest version promotes the previous one. On disk the
// version file becomes a tombstone (rename, not removal), keeping the
// version number burned across restarts.
func (r *Registry) Delete(name string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := r.models[name]
	if len(vs) == 0 {
		return fmt.Errorf("serve: model %q %w", name, errNotFound)
	}
	entomb := func(mv *ModelVersion) error {
		dst := filepath.Join(filepath.Dir(mv.Path), tombstoneFile(mv.Version))
		if err := r.fs.Rename(mv.Path, dst); err != nil {
			return fmt.Errorf("serve: delete %s@%d: %w", name, mv.Version, err)
		}
		return nil
	}
	if version == 0 {
		// Each version leaves memory as its rename lands, so a failure part
		// way keeps serving exactly what a restart would load.
		for len(vs) > 0 {
			if err := entomb(vs[0]); err != nil {
				r.models[name] = vs
				return err
			}
			vs = vs[1:]
		}
		delete(r.models, name)
		return nil
	}
	for i, mv := range vs {
		if mv.Version == version {
			if err := entomb(mv); err != nil {
				return err
			}
			r.models[name] = append(vs[:i:i], vs[i+1:]...)
			if len(r.models[name]) == 0 {
				delete(r.models, name)
			}
			return nil
		}
	}
	return fmt.Errorf("serve: model %s@%d %w", name, version, errNotFound)
}
