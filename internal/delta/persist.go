package delta

import (
	"encoding/json"
	"time"

	"frappe/internal/atomicfile"
	"frappe/internal/graph"
	"frappe/internal/gstats"
	"frappe/internal/store"
)

// PersistUpdate writes everything one applied update produces — the new
// store files, the session's manifest/file-table/tucache state, and the
// journal record — into dir as ONE crash-consistent commit. A crash at
// any instant leaves the directory wholly at the previous epoch or
// wholly at the new one; in particular the journal can never claim an
// epoch whose store or manifest is missing, and vice versa.
func PersistUpdate(dir string, s *Session, g *graph.Graph, rec Record) error {
	start := time.Now()
	c, err := atomicfile.NewCommit(dir)
	if err != nil {
		return err
	}
	defer c.Abort()
	if err := stage(c, s, g); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	c.Append(JournalFile, append(line, '\n'))
	if err := s.publish(c); err != nil {
		return err
	}
	observePhase(mPhaseStage, start, time.Now())
	return nil
}

// PersistIndex is PersistUpdate for a from-scratch index: the same
// atomic bundle, but the journal is replaced with just this record
// (epoch history restarts with a fresh extraction).
func PersistIndex(dir string, s *Session, g *graph.Graph, rec Record) error {
	c, err := atomicfile.NewCommit(dir)
	if err != nil {
		return err
	}
	defer c.Abort()
	if err := stage(c, s, g); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := c.WriteFile(JournalFile, append(line, '\n')); err != nil {
		return err
	}
	return s.publish(c)
}

// stage puts the store files, the session's state and the graph
// statistics into c. Statistics ride in the same commit so the
// planner's cost inputs always describe the store files next to them.
// Collect is deterministic over the graph, so an incrementally built
// epoch and a from-scratch rebuild of it stage byte-identical
// statistics.
func stage(c *atomicfile.Commit, s *Session, g *graph.Graph) error {
	if err := store.StageTo(c, g); err != nil {
		return err
	}
	if err := s.StageState(c); err != nil {
		return err
	}
	return gstats.Stage(c, gstats.Collect(g))
}
