package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkpoint is the on-disk record of one job: identity, lifecycle
// state, the verbatim grid document (so a restarted daemon re-expands
// the exact same point list), and the constant-size aggregate whose
// Done field is the resume offset. One JSON file per job, replaced
// atomically, so a crash between writes leaves the previous complete
// record, never a torn one.
type checkpoint struct {
	ID        string          `json:"id"`
	Seq       uint64          `json:"seq"`
	State     State           `json:"state"`
	Total     int             `json:"total"`
	Spec      json.RawMessage `json:"spec"`
	Err       string          `json:"err,omitempty"`
	Aggregate *Aggregate      `json:"aggregate"`
	// FinishedNS is the terminal-state wall time in UnixNano (0 while
	// non-terminal) — what the retention sweep ages against.
	FinishedNS int64 `json:"finished_ns,omitempty"`
	// Shard marks a sharded job and records its lease geometry plus the
	// ranges completed out of order (the reorder buffer), so a restarted
	// coordinator resumes without rescheduling completed ranges.
	// Outstanding leases are deliberately NOT persisted: a restarted
	// coordinator simply re-issues open ranges, and a late partial from
	// a pre-restart lease still folds because completion is keyed by
	// range, not lease.
	Shard *shardCheckpoint `json:"shard,omitempty"`

	// file is the checkpoint's file name in the directory (not
	// persisted), so Open can quarantine a record it cannot restore.
	file string
}

// shardCheckpoint is the sharded half of a checkpoint. Aggregate.Done
// remains the fold cursor (always a range boundary); Pending holds the
// completed-but-unfoldable ranges ahead of it.
type shardCheckpoint struct {
	LeasePoints int            `json:"lease_points"`
	LeaseTTLMS  int64          `json:"lease_ttl_ms"`
	Pending     []pendingRange `json:"pending,omitempty"`
}

// pendingRange is one out-of-order completed range with its records.
type pendingRange struct {
	Lo     int           `json:"lo"`
	Hi     int           `json:"hi"`
	Points []PointRecord `json:"points"`
}

func checkpointPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// writeCheckpointBytes atomically replaces the job's checkpoint file
// with the already-marshalled record: write-to-temp, fsync, rename —
// the rename is the commit point, so a crash mid-write leaves the
// previous complete checkpoint in place.
func writeCheckpointBytes(dir, id string, data []byte) error {
	path := checkpointPath(dir, id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: checkpoint %s: %w", id, err)
	}
	_, werr := f.Write(append(data, '\n'))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: checkpoint %s: %w", id, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: checkpoint %s: %w", id, err)
	}
	return nil
}

// readCheckpoints loads every job checkpoint in dir, sorted by Seq —
// the submission order a restarted manager re-enqueues in. Stray .tmp
// files (a crash mid-write) are ignored. An undecodable checkpoint is
// quarantined (see quarantine) so one corrupt file cannot keep every
// other job from resuming; an unreadable directory or file is an
// error.
func readCheckpoints(dir string) ([]*checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: scan %s: %w", dir, err)
	}
	var cps []*checkpoint
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("jobs: read checkpoint %s: %w", name, err)
		}
		cp := &checkpoint{file: name}
		if err := json.Unmarshal(data, cp); err != nil {
			if err := quarantine(dir, name); err != nil {
				return nil, err
			}
			continue
		}
		if cp.Aggregate == nil {
			cp.Aggregate = NewAggregate()
		}
		cps = append(cps, cp)
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].Seq < cps[j].Seq })
	return cps, nil
}

// quarantine renames an unusable checkpoint to <name>.corrupt: later
// scans skip it (it no longer ends in .json) while its bytes stay on
// disk for inspection.
func quarantine(dir, name string) error {
	path := filepath.Join(dir, name)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return fmt.Errorf("jobs: quarantine checkpoint %s: %w", name, err)
	}
	return nil
}
