// Durable on-disk codec for Checkpoint. The file is a versioned binary
// envelope around a deterministic JSON payload:
//
//	magic "CHOPIMCK" | version u32 LE | config fingerprint (32 B)
//	| payload length u64 LE | payload | SHA-256 digest (32 B)
//
// and the payload itself is two sections:
//
//	hierarchy length u64 LE | hierarchy JSON | core JSON
//
// The cache hierarchy dominates a checkpoint's bytes (the packed line
// blob alone is megabytes), and encoding/json re-compacts every nested
// MarshalJSON result byte by byte — embedding the hierarchy in the core
// document would re-scan those megabytes on every periodic checkpoint
// write, multiplying the encode cost several-fold. Carrying it as its
// own length-prefixed section keeps the write cheap enough for a live
// checkpoint cadence; the digest trailer still covers both sections.
//
// The payload is the component snapshot states' own wire encodings
// (each State type carries a MarshalJSON that serializes through the
// same durable identities — launch tags, ROB slots, blueprint indices,
// RNG draw counts — the in-memory restore resolves closures from), so a
// decoded checkpoint feeds the ordinary Restore path unchanged and the
// reloaded system continues bit-identically in a fresh process. The
// digest trailer covers every preceding byte: a torn write, a flipped
// bit, or a stale partial file surfaces as ErrCorruptCheckpoint at load
// time, never as a half-restored system. The fingerprint pins the
// simulated configuration (StateConfig: exactly the fields Restore
// tolerates differing are excluded); restoring under a
// different config is ErrCheckpointMismatch, a caller bug distinct from
// file damage.
package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"chopim/internal/atomicio"
	"chopim/internal/cache"
	"chopim/internal/cpu"
	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/osmem"
	"chopim/internal/workload"
)

// Checkpoint file corruption vs misuse: corruption (truncation, bad
// magic, digest mismatch, undecodable payload) means the file cannot be
// trusted and the caller should recompute; mismatch means the file is
// intact but belongs to a different simulated configuration.
var (
	ErrCorruptCheckpoint  = errors.New("sim: corrupt checkpoint file")
	ErrCheckpointMismatch = errors.New("sim: checkpoint config fingerprint mismatch")
)

var ckptMagic = [8]byte{'C', 'H', 'O', 'P', 'I', 'M', 'C', 'K'}

// ckptVersion is the file format version; bump on any wire change.
const ckptVersion = 1

// ckptHeaderLen is magic + version + fingerprint + payload length.
const ckptHeaderLen = 8 + 4 + sha256.Size + 8

// ckptWire is the core JSON section: every component state except the
// cache hierarchy (which rides as its own payload section, see the
// package comment) plus the clock and measurement scalars Snapshot
// captures.
type ckptWire struct {
	DRAM  *dram.MemState
	OS    *osmem.OSState
	MCs   []*mc.ControllerState
	Cores []*cpu.CoreState
	Gens  []*workload.GenState
	Eng   *nda.EngineState
	RT    *ndart.RuntimeState

	DRAMCycle     int64
	CPUCycle      int64
	Credit        int
	MeasStartDRAM int64
	MeasStartCPU  int64
	RetiredAtMeas []int64
	CoreEpoch     []uint64
}

// StateConfig returns cfg with the state-free knobs zeroed: the worker
// count, invariant checking, robustness limits, and the cancel flag
// neither affect simulated state nor survive a process — Restore
// accepts any of them differing. It is the one list every
// state-fingerprinting key (ConfigFingerprint, the experiment runner's
// warm-pool and mid-point checkpoint keys) hashes through.
func StateConfig(cfg Config) Config {
	cfg.SimWorkers = 0
	cfg.CheckInvariants = false
	cfg.WatchdogWindow = 0
	cfg.MaxCycles = 0
	cfg.MaxWallClock = 0
	cfg.Cancel = nil
	return cfg
}

// ConfigFingerprint hashes the simulated configuration, StateConfig(cfg).
// Two configs with equal fingerprints produce interchangeable
// checkpoint files.
func ConfigFingerprint(cfg Config) ([sha256.Size]byte, error) {
	b, err := json.Marshal(StateConfig(cfg))
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("sim: fingerprint config: %w", err)
	}
	return sha256.Sum256(b), nil
}

// EncodeCheckpoint serializes a checkpoint taken under cfg into the
// envelope format. The bytes are self-validating (digest trailer) and
// position-independent — write them anywhere, load them in any process.
func EncodeCheckpoint(cfg Config, ck *Checkpoint) ([]byte, error) {
	fp, err := ConfigFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	var hier []byte
	if ck.hier != nil {
		if hier, err = ck.hier.MarshalJSON(); err != nil {
			return nil, fmt.Errorf("sim: encode checkpoint hierarchy: %w", err)
		}
	}
	core, err := json.Marshal(&ckptWire{
		DRAM: ck.dram, OS: ck.os, MCs: ck.mcs,
		Cores: ck.cores, Gens: ck.gens, Eng: ck.eng, RT: ck.rt,
		DRAMCycle: ck.dramCycle, CPUCycle: ck.cpuCycle, Credit: ck.credit,
		MeasStartDRAM: ck.measStartDRAM, MeasStartCPU: ck.measStartCPU,
		RetiredAtMeas: ck.retiredAtMeas, CoreEpoch: ck.coreEpoch,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	plen := 8 + len(hier) + len(core)
	b := make([]byte, 0, ckptHeaderLen+plen+sha256.Size)
	b = append(b, ckptMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ckptVersion)
	b = append(b, fp[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(plen))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(hier)))
	b = append(b, hier...)
	b = append(b, core...)
	digest := sha256.Sum256(b)
	b = append(b, digest[:]...)
	return b, nil
}

// DecodeCheckpoint validates and decodes an envelope produced by
// EncodeCheckpoint. Any structural damage — truncation, wrong magic or
// version, digest mismatch, undecodable payload — reports
// ErrCorruptCheckpoint; an intact file for a different configuration
// reports ErrCheckpointMismatch. Validation runs before any state is
// built, so a damaged file can never half-populate a Checkpoint.
func DecodeCheckpoint(cfg Config, b []byte) (*Checkpoint, error) {
	if len(b) < ckptHeaderLen+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorruptCheckpoint, len(b))
	}
	if !bytes.Equal(b[:8], ckptMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != ckptVersion {
		return nil, fmt.Errorf("%w: format version %d (want %d)", ErrCorruptCheckpoint, v, ckptVersion)
	}
	plen := binary.LittleEndian.Uint64(b[ckptHeaderLen-8 : ckptHeaderLen])
	if uint64(len(b)) != uint64(ckptHeaderLen)+plen+sha256.Size {
		return nil, fmt.Errorf("%w: payload length %d does not match file size %d", ErrCorruptCheckpoint, plen, len(b))
	}
	body := b[:len(b)-sha256.Size]
	digest := sha256.Sum256(body)
	if !bytes.Equal(digest[:], b[len(b)-sha256.Size:]) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrCorruptCheckpoint)
	}
	fp, err := ConfigFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(fp[:], b[12:12+sha256.Size]) {
		return nil, ErrCheckpointMismatch
	}
	payload := b[ckptHeaderLen : len(b)-sha256.Size]
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: payload shorter than its section header", ErrCorruptCheckpoint)
	}
	hlen := binary.LittleEndian.Uint64(payload[:8])
	if hlen > uint64(len(payload)-8) {
		return nil, fmt.Errorf("%w: hierarchy section length %d exceeds payload", ErrCorruptCheckpoint, hlen)
	}
	var hier *cache.HierarchyState
	if hlen > 0 {
		hier = new(cache.HierarchyState)
		if err := hier.UnmarshalJSON(payload[8 : 8+hlen]); err != nil {
			return nil, fmt.Errorf("%w: hierarchy section: %v", ErrCorruptCheckpoint, err)
		}
	}
	var w ckptWire
	if err := json.Unmarshal(payload[8+hlen:], &w); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorruptCheckpoint, err)
	}
	if w.DRAM == nil || w.OS == nil || w.Eng == nil || w.RT == nil {
		return nil, fmt.Errorf("%w: payload missing a required component", ErrCorruptCheckpoint)
	}
	return &Checkpoint{
		dram: w.DRAM, os: w.OS, mcs: w.MCs, hier: hier,
		cores: w.Cores, gens: w.Gens, eng: w.Eng, rt: w.RT,
		dramCycle: w.DRAMCycle, cpuCycle: w.CPUCycle, credit: w.Credit,
		measStartDRAM: w.MeasStartDRAM, measStartCPU: w.MeasStartCPU,
		retiredAtMeas: w.RetiredAtMeas, coreEpoch: w.CoreEpoch,
	}, nil
}

// WriteCheckpoint writes the envelope to w. For files prefer
// SaveCheckpoint, which also gets atomic-replace and fsync discipline.
func WriteCheckpoint(w io.Writer, cfg Config, ck *Checkpoint) error {
	b, err := EncodeCheckpoint(cfg, ck)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadCheckpoint reads and validates one envelope from r.
func ReadCheckpoint(r io.Reader, cfg Config) (*Checkpoint, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(cfg, b)
}

// SaveCheckpoint durably persists the checkpoint at path: the envelope
// is written to a temp file, fsynced, and renamed into place, so a
// crash at any instant leaves either the previous file or the complete
// new one — never a torn mixture.
func SaveCheckpoint(path string, cfg Config, ck *Checkpoint) error {
	b, err := EncodeCheckpoint(cfg, ck)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, b)
}

// LoadCheckpoint reads and validates the checkpoint at path.
func LoadCheckpoint(path string, cfg Config) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(cfg, b)
}
