package phone

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/wavesegment"
)

var (
	metricOutboxSpills = obs.NewCounter("sensorsafe_phone_outbox_spills_total",
		"Upload batches spilled to the phone's durable outbox after a failed upload.")
	metricOutboxDrains = obs.NewCounter("sensorsafe_phone_outbox_drains_total",
		"Spilled batches successfully re-uploaded from the phone's outbox.")
	metricOutboxPending = obs.NewGauge("sensorsafe_phone_outbox_pending",
		"Upload batches currently waiting in the phone's outbox.")
)

// Outbox is the phone's durable spill area for upload batches that could
// not reach the store: each failed batch is written atomically to one
// numbered file, and Drain re-uploads them in order once connectivity
// returns. Files survive process restarts, so no sampled data is lost to
// a store outage — the paper's phone buffers locally and uploads
// opportunistically, and the outbox is that buffer's durable tail.
type Outbox struct {
	// Dir is the spill directory (created on first use).
	Dir string

	mu   sync.Mutex
	next uint64 // next sequence number; 0 = not yet scanned
}

const outboxPrefix = "batch-"

// scanLocked initializes the sequence counter from the files already on
// disk so restarts keep appending after the highest existing batch.
func (o *Outbox) scanLocked() error {
	if o.next != 0 {
		return nil
	}
	if err := os.MkdirAll(o.Dir, 0o700); err != nil {
		return fmt.Errorf("phone: outbox dir: %w", err)
	}
	max := uint64(0)
	for _, name := range o.filesLocked() {
		if n, err := strconv.ParseUint(seqOf(name), 10, 64); err == nil && n > max {
			max = n
		}
	}
	o.next = max + 1
	return nil
}

// filesLocked lists spill files sorted by sequence (lexical order works:
// fixed-width numbering).
func (o *Outbox) filesLocked() []string {
	entries, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, outboxPrefix) && strings.HasSuffix(name, ".json") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func seqOf(name string) string {
	return strings.TrimSuffix(strings.TrimPrefix(name, outboxPrefix), ".json")
}

// Spill writes one failed batch durably. The write is atomic, so a crash
// mid-spill leaves either the complete batch or nothing — never a torn
// file the drain would choke on.
func (o *Outbox) Spill(batch []*wavesegment.Segment) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.scanLocked(); err != nil {
		return err
	}
	data, err := json.Marshal(batch)
	if err != nil {
		return fmt.Errorf("phone: encode outbox batch: %w", err)
	}
	name := fmt.Sprintf("%s%012d.json", outboxPrefix, o.next)
	// Never reuse a name: a failed write may still have left its batch.
	o.next++
	if err := resilience.WriteFileAtomic(filepath.Join(o.Dir, name), data, 0o600); err != nil {
		return fmt.Errorf("phone: spill batch: %w", err)
	}
	metricOutboxSpills.Inc()
	metricOutboxPending.Set(float64(len(o.filesLocked())))
	return nil
}

// Pending reports how many spilled batches await re-upload.
func (o *Outbox) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.filesLocked())
}

// Drain re-uploads spilled batches oldest-first, deleting each file only
// after the store accepts it. It stops at the first failure (the store is
// evidently still unreachable) and reports how many batches and store
// records made it. Uploads are idempotent store-side (segment merge), so
// a crash between upload and delete means a harmless re-upload next time.
//
// The mutex is held only around directory state — never across the
// uploads themselves — so a slow or retrying store connection cannot
// block Spill (the recorder's failure path) behind a network wait.
// Batches spilled while a drain is running wait for the next pass, and
// two overlapping drains at worst re-upload a batch the other already
// delivered (idempotent) and find its file already gone.
func (o *Outbox) Drain(ctx context.Context, store Store, key auth.APIKey) (batches, records int, err error) {
	o.mu.Lock()
	if err := o.scanLocked(); err != nil {
		o.mu.Unlock()
		return 0, 0, err
	}
	names := o.filesLocked()
	o.mu.Unlock()
	for _, name := range names {
		path := filepath.Join(o.Dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // a concurrent drain already delivered this batch
			}
			return batches, records, fmt.Errorf("phone: read outbox batch: %w", err)
		}
		var batch []*wavesegment.Segment
		if err := json.Unmarshal(data, &batch); err != nil {
			return batches, records, fmt.Errorf("phone: decode outbox batch %s: %w", name, err)
		}
		n, err := store.UploadCtx(ctx, key, batch)
		if err != nil {
			o.refreshPending()
			return batches, records, fmt.Errorf("phone: drain outbox: %w", err)
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return batches, records, fmt.Errorf("phone: remove drained batch: %w", err)
		}
		batches++
		records += n
		metricOutboxDrains.Inc()
	}
	o.refreshPending()
	return batches, records, nil
}

// refreshPending re-reads the spill directory and updates the pending
// gauge.
func (o *Outbox) refreshPending() {
	o.mu.Lock()
	metricOutboxPending.Set(float64(len(o.filesLocked())))
	o.mu.Unlock()
}
