package main

import (
	"bytes"
	"fmt"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/sim"
	"servdisc/internal/trace"
	"servdisc/internal/traffic"
)

// segment is one stretch of the border input: a raw campus border trace
// as pcap bytes (every packet the simulated border router carries, before
// link assignment or the capture filter) and the active sweep reports that
// finished within it.
type segment struct {
	pcap    []byte
	records int
	reports []*probe.ScanReport
	start   time.Time
}

// borderInput is the border-replay workload's generated input, split into
// the warm-up day the set-up replays and the days the timed phase replays.
type borderInput struct {
	warm, main segment
	campus     string
	academic   []netaddr.V4
}

// splitRecorder writes each packet to the warm or the main trace by its
// timestamp.
type splitRecorder struct {
	cut        time.Time
	warm, main *capture.Recorder
	one        []packet.Packet
}

func (s *splitRecorder) HandleBatch(batch []packet.Packet) {
	for i := range batch {
		s.one = append(s.one[:0], batch[i])
		if batch[i].Timestamp.Before(s.cut) {
			s.warm.HandleBatch(s.one)
		} else {
			s.main.HandleBatch(s.one)
		}
	}
}

// genBorder simulates warmDays+days of the default semester campus
// (scanners included) with its seed derived from the benchmark seed, and
// twice-daily sweeps over the same campus by the simulated active scanner.
func genBorder(seed uint64, warmDays, days float64) (*borderInput, error) {
	cfg := campus.DefaultSemesterConfig()
	cfg.Seed ^= seed * 0x9E3779B97F4A7C15
	net, err := campus.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Start)
	campus.NewDynamics(net, eng)
	pfx, err := netaddr.NewPrefix(net.Plan().Base(), 16)
	if err != nil {
		return nil, err
	}
	cut := cfg.Start.Add(time.Duration(warmDays * float64(24*time.Hour)))
	end := cut.Add(time.Duration(days * float64(24*time.Hour)))
	var warmBuf, mainBuf bytes.Buffer
	warmW := trace.NewWriter(&warmBuf, trace.LinkTypeRaw, trace.DefaultSnapLen)
	mainW := trace.NewWriter(&mainBuf, trace.LinkTypeRaw, trace.DefaultSnapLen)
	rec := &splitRecorder{cut: cut, warm: capture.NewRecorder(warmW), main: capture.NewRecorder(mainW)}
	traffic.NewGenerator(net, eng, rec)

	in := &borderInput{campus: pfx.String(), academic: net.AcademicClients()}
	in.warm.start, in.main.start = cfg.Start, cut
	scanner := probe.NewSimScanner(&probe.SimBackend{Net: net}, eng, probe.ScanConfig{
		Targets:  net.Plan().ProbeTargets(),
		TCPPorts: campus.SelectedTCPPorts,
		Rate:     7, // two shards: ~96-minute sweeps, as in the paper
		Shards:   2,
	})
	sweeps := int((warmDays + days) * 2)
	scanner.ScheduleEvery(cfg.Start.Add(time.Hour), 12*time.Hour, sweeps, func(rep *probe.ScanReport) {
		if rep.Finished.Before(cut) {
			in.warm.reports = append(in.warm.reports, rep)
		} else {
			in.main.reports = append(in.main.reports, rep)
		}
	})
	eng.RunUntil(end)
	for _, r := range []*capture.Recorder{rec.warm, rec.main} {
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	for _, w := range []*trace.Writer{warmW, mainW} {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	in.warm.pcap, in.warm.records = warmBuf.Bytes(), rec.warm.Written
	in.main.pcap, in.main.records = mainBuf.Bytes(), rec.main.Written
	if in.warm.records == 0 || in.main.records == 0 {
		return nil, fmt.Errorf("border trace is empty")
	}
	return in, nil
}
