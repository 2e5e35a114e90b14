package experiments

import (
	"fmt"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// E2Config parameterizes the wave-segment optimization experiment.
type E2Config struct {
	// Hours of continuous data to synthesize.
	Hours float64
	// SampleHz is the per-channel sampling rate.
	SampleHz float64
	// PacketSizes are the device packet sizes to sweep (samples/packet).
	PacketSizes []int
	// MaxSegmentSamples caps merged segments.
	MaxSegmentSamples int
	// QueryWindows is how many range queries to time per configuration.
	QueryWindows int
}

// DefaultE2 mirrors the paper's setting: a chest band streaming 64-sample
// packets continuously for a day, stored raw vs optimized.
func DefaultE2() E2Config {
	return E2Config{
		Hours:             2,
		SampleHz:          10,
		PacketSizes:       []int{16, 64, 256},
		MaxSegmentSamples: wavesegment.DefaultMaxSamples,
		QueryWindows:      50,
	}
}

var e2Start = time.Date(2011, 2, 16, 0, 0, 0, 0, time.UTC)

// e2Packets synthesizes the packet stream for one configuration.
func e2Packets(cfg E2Config, packetSize int) []*wavesegment.Segment {
	interval := time.Duration(float64(time.Second) / cfg.SampleHz)
	total := int(cfg.Hours * 3600 * cfg.SampleHz)
	loc := geo.Point{Lat: 34.0689, Lon: -118.4452}
	channels := []string{
		wavesegment.ChannelECG, wavesegment.ChannelRespiration, wavesegment.ChannelSkinTemp,
	}
	var packets []*wavesegment.Segment
	at := e2Start
	for produced := 0; produced < total; {
		n := packetSize
		if produced+n > total {
			n = total - produced
		}
		seg := &wavesegment.Segment{
			Contributor: "e2", Start: at, Interval: interval,
			Location: loc, Channels: channels,
		}
		for i := 0; i < n; i++ {
			seg.Values = append(seg.Values, []float64{
				float64(produced+i) * 0.001, float64(produced+i) * 0.002, 36.5,
			})
		}
		packets = append(packets, seg)
		at = seg.EndTime()
		produced += n
	}
	return packets
}

// e2Load stores the packets (optimized or raw) and returns the store.
// maxSamples caps records both in the optimizer and as the store extends
// them; the raw leg passes one packet's size, so no packet joins another.
func e2Load(packets []*wavesegment.Segment, optimize bool, maxSamples int) (*storage.Store, error) {
	st := storage.NewMemory(maxSamples)
	segs := packets
	if optimize {
		var err error
		if segs, err = wavesegment.OptimizeAll(packets, maxSamples); err != nil {
			st.Close()
			return nil, err
		}
	}
	for _, seg := range segs {
		if _, err := st.Put(seg); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// e2QueryLatency times q QueryWindows half-hour range scans.
func e2QueryLatency(st *storage.Store, cfg E2Config) (time.Duration, int, error) {
	window := 30 * time.Minute
	span := time.Duration(cfg.Hours * float64(time.Hour))
	stride := span / time.Duration(cfg.QueryWindows)
	begin := time.Now()
	matched := 0
	for i := 0; i < cfg.QueryWindows; i++ {
		from := e2Start.Add(time.Duration(i) * stride)
		res, err := st.ScanRefs(storage.Query{From: from, To: from.Add(window)})
		if err != nil {
			return 0, 0, err
		}
		matched += len(res)
	}
	return time.Since(begin) / time.Duration(cfg.QueryWindows), matched, nil
}

// blobBytes totals the binary blob size of every record.
func blobBytes(st *storage.Store) (int, error) {
	res, err := st.ScanRefs(storage.Query{})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, r := range res {
		blob, err := wavesegment.MarshalBinary(r.Segment)
		if err != nil {
			return 0, err
		}
		total += len(blob)
	}
	return total, nil
}

// RunE2 measures records, storage bytes, and query latency with and
// without wave-segment optimization, per device packet size.
func RunE2(cfg E2Config) (*Table, error) {
	t := &Table{
		ID: "E2",
		Caption: fmt.Sprintf("wave-segment optimization (%.2gh @ %.0f Hz x 3 channels, cap %d samples/segment)",
			cfg.Hours, cfg.SampleHz, cfg.MaxSegmentSamples),
		Headers: []string{"packet", "records raw", "records opt", "ratio",
			"bytes raw", "bytes opt", "query raw", "query opt", "speedup"},
		Notes: []string{
			"paper §5.1: record count drives query cost; merging timestamp-consecutive packets should cut both",
		},
	}
	for _, ps := range cfg.PacketSizes {
		packets := e2Packets(cfg, ps)

		raw, err := e2Load(packets, false, ps)
		if err != nil {
			return nil, err
		}
		opt, err := e2Load(packets, true, cfg.MaxSegmentSamples)
		if err != nil {
			raw.Close()
			return nil, err
		}

		rawBytes, err := blobBytes(raw)
		if err != nil {
			return nil, err
		}
		optBytes, err := blobBytes(opt)
		if err != nil {
			return nil, err
		}
		rawLat, _, err := e2QueryLatency(raw, cfg)
		if err != nil {
			return nil, err
		}
		optLat, _, err := e2QueryLatency(opt, cfg)
		if err != nil {
			return nil, err
		}

		speedup := float64(rawLat) / float64(optLat)
		ratio := float64(raw.Count()) / float64(opt.Count())
		t.AddRow(
			fmt.Sprintf("%d", ps),
			fmt.Sprintf("%d", raw.Count()),
			fmt.Sprintf("%d", opt.Count()),
			fmt.Sprintf("%.0fx", ratio),
			fmt.Sprintf("%d", rawBytes),
			fmt.Sprintf("%d", optBytes),
			rawLat.Round(100*time.Nanosecond).String(),
			optLat.Round(100*time.Nanosecond).String(),
			fmt.Sprintf("%.1fx", speedup),
		)
		raw.Close()
		opt.Close()
	}
	return t, nil
}
