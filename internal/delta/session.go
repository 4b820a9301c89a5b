package delta

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"time"

	"frappe/internal/atomicfile"
	"frappe/internal/cparse"
	"frappe/internal/cpp"
	"frappe/internal/extract"
	"frappe/internal/graph"
)

// Session owns the state an incremental extractor carries between
// updates: the shared file table (so FileIDs stay stable across
// updates), the frontend artifact of every live translation unit, and
// the manifest describing the source state those artifacts were built
// from. A Session is not safe for concurrent use; callers serialise
// updates (core.Engine holds one update lock).
type Session struct {
	opts  extract.Options
	files *cpp.FileTable
	arts  map[string]*extract.UnitArtifact
	// entries holds each artifact's encoded tucache entry. The entry is
	// made once, when the frontend runs (or read back by Resume), and is
	// what StageState writes; the artifact keeps no token stream, which
	// nothing reads once the AST is parsed.
	entries  map[string][]byte
	manifest *Manifest
	// failed records units whose last frontend attempt hard-failed, so
	// subsequent assembles keep reporting the error exactly as a
	// from-scratch run would.
	failed map[string]error
	// forceDirty marks units whose cached artifact could not be restored
	// and must re-extract on the next update regardless of hashes.
	forceDirty map[string]bool
	// dirty names the units sent through the frontend since the
	// session's state was last published to stagedDir, the only tucache
	// entries StageState must rewrite there.
	dirty     map[string]bool
	stagedDir string
	// last is the graph the session assembled most recently, and
	// lastSigs its signature hashes once an update has computed them:
	// when the next update diffs against that same graph, only the new
	// side is hashed.
	last     *graph.Graph
	lastSigs *sigSet
}

func newSession(opts extract.Options) *Session {
	return &Session{
		opts:       opts,
		files:      cpp.NewFileTable(),
		arts:       map[string]*extract.UnitArtifact{},
		entries:    map[string][]byte{},
		failed:     map[string]error{},
		forceDirty: map[string]bool{},
		dirty:      map[string]bool{},
	}
}

// NewSession runs a full extraction over build and returns the session
// plus its result. Equivalent to extract.Run (including its opts.Jobs
// frontend fan-out), but retaining the state later Update calls need.
func NewSession(build extract.Build, opts extract.Options) (*Session, *extract.Result, error) {
	s := newSession(opts)
	if err := s.runFrontends(build.Units); err != nil {
		return nil, nil, err
	}
	res := s.assemble(build, nil)
	s.manifest = buildManifest(build, s.arts, s.files, opts.FS, 0)
	return s, res, nil
}

// Manifest returns the session's current manifest.
func (s *Session) Manifest() *Manifest { return s.manifest }

// Files returns the session's file table.
func (s *Session) Files() *cpp.FileTable { return s.files }

// Plan classifies the current tree against the session's manifest.
func (s *Session) Plan(build extract.Build) (*Plan, error) {
	return planUpdate(s.manifest, build, s.opts.FS, s.forceDirty)
}

// Update is the outcome of one incremental update.
type Update struct {
	Plan *Plan
	// Result is the freshly assembled extraction (nil when NoOp).
	Result *extract.Result
	// Diff is the change against the old graph passed to Session.Update
	// (zero when NoOp or when no old graph was supplied).
	Diff Diff
	// Epoch is the manifest epoch after the update.
	Epoch int64
	// Reextracted counts the translation units sent through the frontend.
	Reextracted int
	// NoOp reports that the plan was empty: nothing was re-extracted, no
	// new graph was built, and the epoch did not advance.
	NoOp bool
}

// Update plans against build, re-runs the frontend for only the dirty
// units, re-assembles the graph from cached artifacts, and diffs it
// against old (the live graph; nil skips the diff). An empty plan is a
// no-op: the epoch does not advance and no graph is built.
//
// The diff hashes signatures (see sighash.go). When old is the graph
// this session assembled last, its hashes are reused from the previous
// update, so only the new graph is hashed.
func (s *Session) Update(build extract.Build, old graph.Source) (*Update, error) {
	start := time.Now()
	plan, err := s.Plan(build)
	planned := time.Now()
	if err != nil {
		return nil, err
	}
	if plan.Empty() {
		mNoops.Inc()
		return &Update{Plan: plan, Epoch: s.manifest.Epoch, NoOp: true}, nil
	}
	for _, src := range plan.RemovedUnits {
		delete(s.arts, src)
		delete(s.entries, src)
		delete(s.failed, src)
		delete(s.forceDirty, src)
		delete(s.dirty, src)
	}
	unitBySource := make(map[string]extract.CompileUnit, len(build.Units))
	for _, u := range build.Units {
		unitBySource[u.Source] = u
	}
	reext := plan.Reextract()
	units := make([]extract.CompileUnit, 0, len(reext))
	for _, src := range reext {
		u, ok := unitBySource[src]
		if !ok {
			return nil, fmt.Errorf("delta: plan names unit %q not in build", src)
		}
		delete(s.forceDirty, src)
		units = append(units, u)
	}
	if err := s.runFrontends(units); err != nil {
		return nil, err
	}
	extracted := time.Now()
	prev, prevSigs := s.last, s.lastSigs
	res := s.assemble(build, old)
	assembled := time.Now()
	up := &Update{
		Plan:        plan,
		Result:      res,
		Epoch:       s.manifest.Epoch + 1,
		Reextracted: len(reext),
	}
	if old != nil {
		if g, ok := old.(*graph.Graph); !ok || g != prev || prevSigs == nil {
			prevSigs = hashSignatures(old)
		}
		s.lastSigs = hashSignatures(res.Graph)
		up.Diff = prevSigs.diff(s.lastSigs)
		observePhase(mPhaseDiff, assembled, time.Now())
	}
	observePhase(mPhasePlan, start, planned)
	observePhase(mPhaseFrontend, planned, extracted)
	observePhase(mPhaseAssemble, extracted, assembled)
	s.manifest = buildManifest(build, s.arts, s.files, s.opts.FS, up.Epoch)
	mUpdates.Inc()
	mDirty.Add(int64(len(reext)))
	mClean.Add(int64(len(build.Units) - len(reext)))
	return up, nil
}

// runFrontends sends units through the extraction frontend — fanned out
// per the session's opts.Jobs, with the deterministic in-order merge of
// extract.Frontends so FileIDs stay identical to a serial run — and
// folds the outcomes into the session's artifact/failure maps. Each
// new artifact is encoded as its tucache entry and then drops its token
// stream. A failed unit's stale artifact must not survive the attempt.
func (s *Session) runFrontends(units []extract.CompileUnit) error {
	arts, errs := extract.Frontends(units, s.opts, s.files)
	for i, u := range units {
		s.dirty[u.Source] = true
		if a := arts[i]; a != nil {
			b, err := encodeArtifact(a)
			if err != nil {
				return err
			}
			a.PP.Tokens = nil
			delete(s.failed, u.Source)
			s.arts[u.Source] = a
			s.entries[u.Source] = b
			continue
		}
		delete(s.arts, u.Source)
		delete(s.entries, u.Source)
		s.failed[u.Source] = errs[u.Source]
	}
	return nil
}

// Assemble materialises the graph from the session's current artifacts
// without planning or re-extraction — how a resumed server session
// rebuilds the in-memory graph it will serve. Units whose artifact
// could not be restored are absent until the next Update re-extracts
// them (Resume marks them force-dirty).
func (s *Session) Assemble(build extract.Build) *extract.Result {
	return s.assemble(build, nil)
}

// NeedsRepair reports whether any unit lost its cached artifact and
// must be re-extracted before the assembled graph is complete.
func (s *Session) NeedsRepair() bool { return len(s.forceDirty) > 0 }

// assemble re-runs the emission phases over the session's artifacts in
// build-unit order, prepending persistent frontend errors the way
// extract.Run does. The new graph reserves the size of the graph it
// replaces (the session's last one, else old; nil: no hint) plus 1/32:
// an edit usually adds a few entities, and a reserve of exactly the old
// size would make the first one past it regrow the whole edge slice.
func (s *Session) assemble(build extract.Build, old graph.Source) *extract.Result {
	arts := make([]*extract.UnitArtifact, 0, len(s.arts))
	var hard []error
	for _, u := range build.Units {
		if a := s.arts[u.Source]; a != nil {
			arts = append(arts, a)
		} else if err := s.failed[u.Source]; err != nil {
			hard = append(hard, err)
		}
	}
	var nodes, edges int64
	if s.last != nil {
		nodes, edges = s.last.NodeCount(), s.last.EdgeCount()
	} else if old != nil {
		nodes, edges = old.NodeCount(), old.EdgeCount()
	}
	res := extract.Assemble(arts, build.Modules, s.opts, s.files, int(nodes+nodes/32), int(edges+edges/32))
	res.Errors = append(hard, res.Errors...)
	s.last, s.lastSigs = res.Graph, nil
	return res
}

// cachedTU is the gob layout of one persisted frontend artifact. The
// token stream is enough to rebuild the AST (cparse.Parse is cheap and
// deterministic); hide sets on tokens are post-expansion bookkeeping and
// need not survive.
type cachedTU struct {
	Source   string
	Object   string
	RootFile cpp.FileID

	Tokens         []cpp.Token
	Includes       []cpp.IncludeRecord
	Expansions     []cpp.ExpansionRecord
	Interrogations []cpp.InterrogationRecord
	MacroDefs      []cpp.MacroDefRecord
	Probes         []string
	// PPDiags holds preprocessor diagnostics as strings (errors do not
	// gob-encode); parser diagnostics are regenerated by the reparse.
	PPDiags []string
}

// fileTableState is the JSON layout of the persisted file table: paths
// in FileID order, so re-interning them in order restores every ID.
type fileTableState struct {
	Paths []string `json:"paths"`
}

// cacheName returns the tucache entry name for a unit source path.
func cacheName(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])[:20] + ".gob"
}

// SaveState persists the session next to the store in dir: the manifest,
// the file table, and one gob per translation-unit artifact under
// tucache/. Stale cache entries are removed. The whole save is one
// crash-consistent commit: a crash leaves either the previous state or
// the new one, never a mix.
func (s *Session) SaveState(dir string) error {
	c, err := atomicfile.NewCommit(dir)
	if err != nil {
		return err
	}
	defer c.Abort()
	if err := s.StageState(c); err != nil {
		return err
	}
	return s.publish(c)
}

// publish publishes a commit holding the session's staged state and,
// once it has succeeded, records that the state is on disk in the
// commit's directory, so the next StageState there rewrites only the
// units re-extracted after this point. A failed publish keeps the dirty
// set: the next attempt stages those units again.
func (s *Session) publish(c *atomicfile.Commit) error {
	if err := c.Publish(); err != nil {
		return err
	}
	s.dirty = map[string]bool{}
	s.stagedDir = filepath.Clean(c.Dir())
	return nil
}

// StageState stages the session's persistent state — manifest, file
// table, per-unit artifact gobs, and removals of stale cache entries —
// into an open commit without publishing it, so callers can bundle the
// session with the store files and a journal record into one atomic unit
// (see PersistUpdate).
//
// When the session's state was last published to the commit's own
// directory, only the units re-extracted since then get a new gob; the
// other entries on disk already hold their artifacts and are left
// untouched. A commit into any other directory stages every entry.
func (s *Session) StageState(c *atomicfile.Commit) error {
	all := filepath.Clean(c.Dir()) != s.stagedDir
	ft, err := json.Marshal(fileTableState{Paths: s.files.Paths()})
	if err != nil {
		return err
	}
	if err := c.WriteFile(path.Join(CacheDir, fileTableFile), append(ft, '\n')); err != nil {
		return err
	}
	keep := map[string]bool{fileTableFile: true}
	sources := make([]string, 0, len(s.arts))
	for src := range s.arts {
		sources = append(sources, src)
	}
	sort.Strings(sources) // deterministic staging (and crash-point) order
	for _, src := range sources {
		name := cacheName(src)
		keep[name] = true
		if !all && !s.dirty[src] {
			continue
		}
		if err := c.WriteFile(path.Join(CacheDir, name), s.entries[src]); err != nil {
			return err
		}
	}
	// Stale entries present in the live cache dir are deleted as part of
	// the commit (a missing file at replay time is fine).
	entries, err := os.ReadDir(filepath.Join(c.Dir(), CacheDir))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, e := range entries {
		if !keep[e.Name()] && filepath.Ext(e.Name()) == ".gob" {
			c.Delete(path.Join(CacheDir, e.Name()))
		}
	}

	mb, err := json.MarshalIndent(s.manifest, "", "  ")
	if err != nil {
		return err
	}
	return c.WriteFile(ManifestFile, append(mb, '\n'))
}

// encodeArtifact renders one artifact as its tucache entry.
func encodeArtifact(a *extract.UnitArtifact) ([]byte, error) {
	ct := cachedTU{
		Source:         a.Unit.Source,
		Object:         a.Unit.Object,
		RootFile:       a.RootFile,
		Tokens:         a.PP.Tokens,
		Includes:       a.PP.Includes,
		Expansions:     a.PP.Expansions,
		Interrogations: a.PP.Interrogations,
		MacroDefs:      a.PP.MacroDefs,
		Probes:         a.PP.Probes,
	}
	for _, e := range a.PP.Errors {
		ct.PPDiags = append(ct.PPDiags, e.Error())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ct); err != nil {
		return nil, fmt.Errorf("delta: encode %s: %w", a.Unit.Source, err)
	}
	return buf.Bytes(), nil
}

// Resume restores a session saved by SaveState. Artifacts whose cache
// entry is missing or unreadable are marked force-dirty: the next Update
// re-extracts them instead of failing. Returns os.ErrNotExist (wrapped)
// when dir has no manifest.
func Resume(dir string, opts extract.Options) (*Session, error) {
	// A previous process may have died mid-commit; finish or discard its
	// work before reading any state, so manifest, tucache and journal are
	// seen at a single consistent epoch. Idempotent and cheap when clean.
	if _, err := atomicfile.Recover(dir); err != nil {
		return nil, fmt.Errorf("delta: recovering %s: %w", dir, err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := newSession(opts)
	s.manifest = m
	// The restored artifacts are exactly the entries on disk in dir.
	s.stagedDir = filepath.Clean(dir)
	cache := filepath.Join(dir, CacheDir)
	ftb, err := os.ReadFile(filepath.Join(cache, fileTableFile))
	if err != nil {
		return nil, fmt.Errorf("delta: %s: %w", fileTableFile, err)
	}
	var ft fileTableState
	if err := json.Unmarshal(ftb, &ft); err != nil {
		return nil, fmt.Errorf("delta: %s: %w", fileTableFile, err)
	}
	for _, p := range ft.Paths {
		s.files.Intern(p)
	}
	for _, tu := range m.TUs {
		a, b, err := loadArtifact(filepath.Join(cache, cacheName(tu.Source)), tu.Source, opts)
		if err != nil {
			// No cached frontend for this unit — either it hard-failed last
			// time (never cached) or the entry is lost/corrupt. Force a
			// re-extraction attempt on the next update.
			s.forceDirty[tu.Source] = true
			continue
		}
		s.arts[tu.Source] = a
		s.entries[tu.Source] = b
	}
	return s, nil
}

// loadArtifact reads one tucache entry and rebuilds the artifact,
// reparsing the AST from the cached token stream, which the artifact
// then drops. It returns the entry's bytes too.
func loadArtifact(path, source string, opts extract.Options) (*extract.UnitArtifact, []byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var c cachedTU
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c); err != nil {
		return nil, nil, fmt.Errorf("delta: decode %s: %w", path, err)
	}
	if c.Source != source {
		return nil, nil, fmt.Errorf("delta: cache entry %s is for %q, want %q", path, c.Source, source)
	}
	pp := &cpp.Result{
		Tokens:         c.Tokens,
		Includes:       c.Includes,
		Expansions:     c.Expansions,
		Interrogations: c.Interrogations,
		MacroDefs:      c.MacroDefs,
		Probes:         c.Probes,
	}
	for _, d := range c.PPDiags {
		pp.Errors = append(pp.Errors, errors.New(d))
	}
	ast := cparse.Parse(pp.Tokens, opts.Typedefs)
	pp.Tokens = nil
	var diags []error
	diags = append(diags, pp.Errors...)
	diags = append(diags, ast.Errors...)
	return &extract.UnitArtifact{
		Unit:     extract.CompileUnit{Source: c.Source, Object: c.Object},
		RootFile: c.RootFile,
		PP:       pp,
		AST:      ast,
		Diags:    diags,
	}, b, nil
}
