package isa

import (
	"fmt"
	"testing"
)

// The expectations below are written from the RISC-V privileged spec (v1.11
// machine and supervisor chapters), not captured from either model: with one
// copy of the rules left, agreement between the timing core and the golden
// model no longer checks them, so these tables must.

// status is mstatus by field, as the spec lays it out: SIE bit 1, MIE 3,
// SPIE 5, MPIE 7, SPP 8, MPP 12:11. other holds every bit outside them.
type status struct {
	sie, mie, spie, mpie, spp, mpp uint64
	other                          uint64
}

func (s status) word() uint64 {
	return s.other | s.sie<<1 | s.mie<<3 | s.spie<<5 | s.mpie<<7 | s.spp<<8 | s.mpp<<11
}

// otherBits are mstatus bits the trap rules must carry through untouched:
// FS = Dirty with SD, and SUM (bit 18).
const otherBits = 3<<13 | 1<<63 | 1<<18

// privAt returns a hart at level with mstatus st, every trap CSR set to a
// sentinel and both vectors installed in direct mode.
func privAt(level int, st status) *Priv {
	p := &Priv{Level: level}
	p.Write(CSRMstatus, st.word())
	for _, n := range []uint16{CSRMepc, CSRMcause, CSRMtval, CSRSepc, CSRScause, CSRStval} {
		p.Write(n, 0xDEAD0000|uint64(n))
	}
	p.Write(CSRMtvec, 0x8000)
	p.Write(CSRStvec, 0x9000)
	return p
}

var levels = []int{PrivU, PrivS, PrivM}

func levelName(l int) string { return map[int]string{PrivU: "U", PrivS: "S", PrivM: "M"}[l] }

func TestPrivTrapEntry(t *testing.T) {
	const cause, pc, tval = ExcLoadPageFault, 0x4000_1234, 0x7FFF_F000
	for _, from := range levels {
		for _, deleg := range []bool{false, true} {
			for _, ie := range []uint64{0, 1} {
				name := fmt.Sprintf("from%s/deleg=%v/ie=%d", levelName(from), deleg, ie)
				t.Run(name, func(t *testing.T) {
					before := status{sie: ie, mie: ie, spie: 1 - ie, mpie: 1 - ie, spp: 1, mpp: PrivS, other: otherBits}
					p := privAt(from, before)
					if deleg {
						p.Write(CSRMedeleg, 1<<cause)
					} else {
						p.Write(CSRMedeleg, ^uint64(1<<cause)) // every other cause delegated
					}
					handler, ok := p.Trap(cause, pc, tval)

					// A trap taken in M is never delegated (medeleg only lowers
					// traps from S and U).
					toS := from != PrivM && deleg
					want := before
					wantCSR := map[uint16]uint64{}
					sentinel := func(n uint16) { wantCSR[n] = 0xDEAD0000 | uint64(n) }
					var wantLevel int
					var wantHandler uint64
					if toS {
						wantCSR[CSRSepc], wantCSR[CSRScause], wantCSR[CSRStval] = pc, cause, tval
						sentinel(CSRMepc)
						sentinel(CSRMcause)
						sentinel(CSRMtval)
						want.spie, want.sie = ie, 0
						want.spp = 0
						if from == PrivS {
							want.spp = 1
						}
						wantLevel, wantHandler = PrivS, 0x9000
					} else {
						wantCSR[CSRMepc], wantCSR[CSRMcause], wantCSR[CSRMtval] = pc, cause, tval
						sentinel(CSRSepc)
						sentinel(CSRScause)
						sentinel(CSRStval)
						want.mpie, want.mie = ie, 0
						want.mpp = uint64(from)
						wantLevel, wantHandler = PrivM, 0x8000
					}
					if !ok || handler != wantHandler {
						t.Errorf("Trap = %#x, %v; want %#x, true", handler, ok, wantHandler)
					}
					if p.Level != wantLevel {
						t.Errorf("level %s, want %s", levelName(p.Level), levelName(wantLevel))
					}
					if got := p.Read(CSRMstatus); got != want.word() {
						t.Errorf("mstatus %#x, want %#x", got, want.word())
					}
					for n, v := range wantCSR {
						if got := p.Read(n); got != v {
							t.Errorf("%s = %#x, want %#x", CSRName(n), got, v)
						}
					}
				})
			}
		}
	}
}

// TestPrivTrapVectorBase: the handler is the vector with its two mode bits
// cleared, and a base of 0 — whatever the mode bits — means no handler: the
// trap state is still entered, and the hart halts with exit -(16+cause).
func TestPrivTrapVectorBase(t *testing.T) {
	for _, tc := range []struct {
		tvec, handler uint64
		ok            bool
	}{
		{0x8000, 0x8000, true}, {0x8001, 0x8000, true}, {0x8003, 0x8000, true},
		{0, 0, false}, {1, 0, false}, {3, 0, false}, {4, 4, true},
	} {
		for _, toS := range []bool{false, true} {
			p := &Priv{Level: PrivU}
			vec := CSRMtvec
			if toS {
				p.Write(CSRMedeleg, 1<<ExcBreakpoint)
				vec = CSRStvec
			}
			p.Write(vec, tc.tvec)
			handler, ok := p.Trap(ExcBreakpoint, 0x1000, 0x1000)
			if handler != tc.handler || ok != tc.ok {
				t.Errorf("%s=%#x: Trap = %#x, %v; want %#x, %v", CSRName(vec), tc.tvec, handler, ok, tc.handler, tc.ok)
			}
			epc := CSRMepc
			if toS {
				epc = CSRSepc
			}
			if p.Read(epc) != 0x1000 {
				t.Errorf("%s=%#x: %s = %#x: the trap state must be entered without a handler too", CSRName(vec), tc.tvec, CSRName(epc), p.Read(epc))
			}
		}
	}
	if got := NoHandlerExit(ExcBreakpoint); got != -19 {
		t.Errorf("NoHandlerExit(breakpoint) = %d, want -19", got)
	}
	if got := NoHandlerExit(ExcEcallS); got != -25 {
		t.Errorf("NoHandlerExit(ecall from S) = %d, want -25", got)
	}
}

// TestPrivXret: mret enters MPP's level with MIE ← MPIE, MPIE ← 1, MPP ← U
// and resumes at mepc; sret enters SPP's level with SIE ← SPIE, SPIE ← 1,
// SPP ← U and resumes at sepc. Neither touches the other's fields.
func TestPrivXret(t *testing.T) {
	for _, mpp := range levels {
		for _, pie := range []uint64{0, 1} {
			before := status{sie: 1, spie: 0, spp: 1, mie: 1 - pie, mpie: pie, mpp: uint64(mpp), other: otherBits}
			p := privAt(PrivM, before)
			p.Write(CSRMepc, 0x2468)
			if pc := p.Mret(); pc != 0x2468 {
				t.Errorf("mret to %s: resumes at %#x, want mepc", levelName(mpp), pc)
			}
			want := before
			want.mie, want.mpie, want.mpp = pie, 1, PrivU
			if p.Level != mpp || p.Read(CSRMstatus) != want.word() {
				t.Errorf("mret to %s, MPIE=%d: level %s mstatus %#x, want %s %#x",
					levelName(mpp), pie, levelName(p.Level), p.Read(CSRMstatus), levelName(mpp), want.word())
			}
		}
	}
	for _, spp := range []uint64{0, 1} {
		for _, pie := range []uint64{0, 1} {
			before := status{mie: 1, mpie: 0, mpp: PrivM, sie: 1 - pie, spie: pie, spp: spp, other: otherBits}
			p := privAt(PrivS, before)
			p.Write(CSRSepc, 0x1357)
			if pc := p.Sret(); pc != 0x1357 {
				t.Errorf("sret: resumes at %#x, want sepc", pc)
			}
			want := before
			want.sie, want.spie, want.spp = pie, 1, 0
			wantLevel := PrivU
			if spp == 1 {
				wantLevel = PrivS
			}
			if p.Level != wantLevel || p.Read(CSRMstatus) != want.word() {
				t.Errorf("sret SPP=%d SPIE=%d: level %s mstatus %#x, want %s %#x",
					spp, pie, levelName(p.Level), p.Read(CSRMstatus), levelName(wantLevel), want.word())
			}
		}
	}
}

// The machine interrupts' mip/mie bit positions and mcause codes.
const (
	msi = 3
	mti = 7
	mei = 11
)

// TestPrivInterruptPriority: of several pending machine interrupts the
// external one is taken first, then software, then timer; entry writes
// mepc, mcause with the interrupt bit (63) set, mtval = 0, MPIE ← MIE,
// MIE ← 0, MPP ← the old level, and enters M at mtvec's base.
func TestPrivInterruptPriority(t *testing.T) {
	for _, tc := range []struct {
		pend, cause uint64
	}{
		{1 << mti, mti}, {1 << msi, msi}, {1 << mei, mei},
		{1<<mti | 1<<msi, msi}, {1<<mti | 1<<mei, mei}, {1<<msi | 1<<mei, mei},
		{1<<msi | 1<<mti | 1<<mei, mei},
	} {
		for _, from := range levels {
			before := status{mie: 1, mpie: 0, mpp: PrivU, sie: 1, spie: 0, spp: 1, other: otherBits}
			p := privAt(from, before)
			p.Write(CSRMtvec, 0x8001)
			cause, handler := p.Interrupt(tc.pend, 0x3000)
			if cause != tc.cause || handler != 0x8000 {
				t.Errorf("pend %#x from %s: cause %d handler %#x, want %d 0x8000", tc.pend, levelName(from), cause, handler, tc.cause)
			}
			want := before
			want.mpie, want.mie, want.mpp = 1, 0, uint64(from)
			if p.Level != PrivM || p.Read(CSRMstatus) != want.word() {
				t.Errorf("pend %#x from %s: level %s mstatus %#x, want M %#x", tc.pend, levelName(from),
					levelName(p.Level), p.Read(CSRMstatus), want.word())
			}
			if p.Read(CSRMepc) != 0x3000 || p.Read(CSRMcause) != 1<<63|tc.cause || p.Read(CSRMtval) != 0 {
				t.Errorf("pend %#x: mepc %#x mcause %#x mtval %#x", tc.pend,
					p.Read(CSRMepc), p.Read(CSRMcause), p.Read(CSRMtval))
			}
		}
	}
}

// TestPrivPendingMaskedByMie: only interrupts mie enables are pending.
func TestPrivPendingMaskedByMie(t *testing.T) {
	all := uint64(1<<msi | 1<<mti | 1<<mei)
	for _, tc := range []struct{ mie, mip, want uint64 }{
		{0, all, 0},
		{1 << mti, all, 1 << mti},
		{1<<msi | 1<<mei, 1 << mti, 0},
		{1<<msi | 1<<mei, all, 1<<msi | 1<<mei},
		{^uint64(0), all | 1<<63 | 1<<16, all}, // only implemented enables stick
	} {
		p := &Priv{Level: PrivM}
		p.Write(CSRMie, tc.mie)
		if got := p.Pending(tc.mip); got != tc.want {
			t.Errorf("mie %#x, mip %#x: Pending = %#x, want %#x", tc.mie, tc.mip, got, tc.want)
		}
	}
}

// TestPrivDeliverable: a machine interrupt is taken below M always, in M
// only with mstatus.MIE, and never while mtvec's base is 0.
func TestPrivDeliverable(t *testing.T) {
	for _, from := range levels {
		for _, mie := range []uint64{0, 1} {
			for _, tvec := range []uint64{0, 1, 3, 0x8000, 0x8001} {
				p := &Priv{Level: from}
				p.Write(CSRMstatus, status{mie: mie, sie: 1 - mie, other: otherBits}.word())
				p.Write(CSRMtvec, tvec)
				want := (from != PrivM || mie == 1) && tvec>>2 != 0
				if got := p.Deliverable(); got != want {
					t.Errorf("%s MIE=%d mtvec=%#x: Deliverable = %v, want %v", levelName(from), mie, tvec, got, want)
				}
			}
		}
	}
}

// TestPrivWARL: mie's writable bits are the six interrupt enables (SSIE,
// MSIE, STIE, MTIE, SEIE, MEIE); mip's only the three supervisor pending
// bits (the machine ones are wired to their sources); mideleg's only the
// supervisor interrupts. Unimplemented bits read 0.
func TestPrivWARL(t *testing.T) {
	const s, m = 1<<1 | 1<<5 | 1<<9, 1<<3 | 1<<7 | 1<<11
	for _, tc := range []struct {
		num  uint16
		want uint64
	}{
		{CSRMie, s | m}, {CSRMip, s}, {CSRMideleg, s},
	} {
		p := &Priv{}
		p.Write(tc.num, ^uint64(0))
		if got := p.Read(tc.num); got != tc.want {
			t.Errorf("%s after writing ~0 = %#x, want %#x", CSRName(tc.num), got, tc.want)
		}
		p.Write(tc.num, 0)
		if got := p.Read(tc.num); got != 0 {
			t.Errorf("%s after writing 0 = %#x", CSRName(tc.num), got)
		}
	}
}

// TestPrivFloatingPointWindows: fflags is fcsr[4:0] and frm fcsr[7:5];
// fcsr holds 8 bits. Writing any of the three, and executing any FP
// instruction (flags raised or not), sets mstatus.FS to Dirty (bits 14:13 =
// 3) and the SD summary bit (63); other mstatus bits stay.
func TestPrivFloatingPointWindows(t *testing.T) {
	const dirty = 3<<13 | 1<<63
	const mie = 1 << 3
	for _, tc := range []struct {
		name              string
		do                func(p *Priv)
		fcsr, fflags, frm uint64
	}{
		{"write fflags", func(p *Priv) { p.Write(CSRFflags, 0xFF) }, 0x1F, 0x1F, 0},
		{"write frm", func(p *Priv) { p.Write(CSRFrm, 0xFF) }, 0xE0, 0, 7},
		{"write fcsr", func(p *Priv) { p.Write(CSRFcsr, 0x1FF) }, 0xFF, 0x1F, 7},
		{"fflags keeps frm", func(p *Priv) { p.Write(CSRFcsr, 0xA0); p.Write(CSRFflags, 0x3) }, 0xA3, 0x3, 5},
		{"frm keeps fflags", func(p *Priv) { p.Write(CSRFcsr, 0x15); p.Write(CSRFrm, 2) }, 0x55, 0x15, 2},
		{"accrue", func(p *Priv) { p.Write(CSRFcsr, 0x01); p.AccrueFP(FFlagNV | FFlagOF) }, 0x15, 0x15, 0},
		{"accrue nothing", func(p *Priv) { p.AccrueFP(0) }, 0, 0, 0},
		{"f-register load", func(p *Priv) { p.DirtyFS() }, 0, 0, 0},
	} {
		p := &Priv{Level: PrivM}
		p.Write(CSRMstatus, mie)
		tc.do(p)
		if p.Read(CSRFcsr) != tc.fcsr || p.Read(CSRFflags) != tc.fflags || p.Read(CSRFrm) != tc.frm {
			t.Errorf("%s: fcsr %#x fflags %#x frm %d, want %#x %#x %d", tc.name,
				p.Read(CSRFcsr), p.Read(CSRFflags), p.Read(CSRFrm), tc.fcsr, tc.fflags, tc.frm)
		}
		if got := p.Read(CSRMstatus); got != mie|dirty {
			t.Errorf("%s: mstatus %#x, want %#x", tc.name, got, uint64(mie|dirty))
		}
	}
	// a write to an unrelated CSR leaves FS alone
	p := &Priv{}
	p.Write(CSRMscratch, 1)
	if p.Read(CSRMstatus) != 0 {
		t.Errorf("mscratch write dirtied mstatus: %#x", p.Read(CSRMstatus))
	}
}

// TestPrivReadOnly: vl, vtype, vlenb, cycle and instret are read-only
// (their values are computed by the hart); a write stores nothing.
func TestPrivReadOnly(t *testing.T) {
	for _, n := range []uint16{CSRVl, CSRVtype, CSRVlenb, CSRCycle, CSRInstret} {
		p := &Priv{}
		p.Write(n, 5)
		if p.Read(n) != 0 || len(p.Dump()) != 0 {
			t.Errorf("writing %s stored %v", CSRName(n), p.Dump())
		}
	}
}

// TestCSRUpdateForms: csrrw always writes its source; csrrs/csrrc set or
// clear the source's bits, and with a zero source (x0, or an immediate of 0)
// do not write at all — the read has no write side effects.
func TestCSRUpdateForms(t *testing.T) {
	const old = 0b1100
	for _, tc := range []struct {
		op    Op
		src   uint64
		v     uint64
		write bool
	}{
		{CSRRW, 0b1010, 0b1010, true}, {CSRRWI, 0b1010, 0b1010, true},
		{CSRRW, 0, 0, true}, {CSRRWI, 0, 0, true},
		{CSRRS, 0b0011, 0b1111, true}, {CSRRSI, 0b0011, 0b1111, true},
		{CSRRC, 0b0100, 0b1000, true}, {CSRRCI, 0b0100, 0b1000, true},
		{CSRRS, 0, 0, false}, {CSRRSI, 0, 0, false},
		{CSRRC, 0, 0, false}, {CSRRCI, 0, 0, false},
	} {
		v, write := CSRUpdate(tc.op, old, tc.src)
		if write != tc.write || write && v != tc.v {
			t.Errorf("%s old %#b src %#b: %#b, %v; want %#b, %v", tc.op, uint64(old), tc.src, v, write, tc.v, tc.write)
		}
	}
}

// TestPrivEcallCause: ecall raises environment call from U (8), S (9) or
// M (11) by the current level.
func TestPrivEcallCause(t *testing.T) {
	for level, want := range map[int]int{PrivU: 8, PrivS: 9, PrivM: 11} {
		if got := (&Priv{Level: level}).EcallCause(); got != want {
			t.Errorf("%s: cause %d, want %d", levelName(level), got, want)
		}
	}
}

// TestHostCall: a7 = 93 exits with a0; a7 = 64 writes a2 bytes from a1,
// stopping at the first unreadable one, and returns a2; any other number is
// not a host call.
func TestHostCall(t *testing.T) {
	mem := map[uint64]byte{0x100: 'h', 0x101: 'i', 0x102: '!'}
	load := func(va uint64) (byte, bool) { b, ok := mem[va]; return b, ok }
	var out []byte
	if ret, exit, ok := HostCall(93, uint64(1<<64-3), 0, 0, &out, load); !ok || !exit || int(int64(ret)) != -3 {
		t.Errorf("exit: %#x %v %v", ret, exit, ok)
	}
	if ret, exit, ok := HostCall(64, 1, 0x100, 2, &out, load); !ok || exit || ret != 2 || string(out) != "hi" {
		t.Errorf("write: %d %v %v %q", ret, exit, ok, out)
	}
	if ret, _, ok := HostCall(64, 1, 0x101, 5, &out, load); !ok || ret != 5 || string(out) != "hii!" {
		t.Errorf("write past the mapped bytes: %d %v %q", ret, ok, out)
	}
	if _, _, ok := HostCall(1234, 0, 0, 0, &out, load); ok {
		t.Error("an unknown number was served")
	}
}
