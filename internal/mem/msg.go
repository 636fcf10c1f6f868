package mem

import "mgpucompress/internal/sim"

// Header sizes in bytes, from the message formats of Fig. 4. The same
// framing is used intra-GPU for consistency; only inter-GPU messages cross
// the compressing RDMA path.
const (
	ReadReqHeaderBytes   = 16 // 4+16+48+32+28 bits = 128
	WriteReqHeaderBytes  = 16 // 4+16+48+4+32+24 bits = 128
	DataReadyHeaderBytes = 4  // 4+16+4+8 bits = 32
	WriteACKHeaderBytes  = 4  // 4+16+12 bits = 32
)

// AccessKind distinguishes loads from stores in statistics.
type AccessKind int

// Access kinds.
const (
	Load AccessKind = iota
	Store
)

// ReadReq asks for n bytes at Addr.
type ReadReq struct {
	sim.MsgMeta
	envelope
	Addr uint64
	N    int
}

// Meta implements sim.Msg.
func (m *ReadReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteReq carries Data to be stored at Addr.
type WriteReq struct {
	sim.MsgMeta
	envelope
	Addr uint64
	Data []byte
}

// Meta implements sim.Msg.
func (m *WriteReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// DataReady answers a ReadReq with the requested bytes.
type DataReady struct {
	sim.MsgMeta
	envelope
	RspTo uint64 // ID of the ReadReq
	Addr  uint64
	Data  []byte
}

// Meta implements sim.Msg.
func (m *DataReady) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteACK acknowledges a WriteReq.
type WriteACK struct {
	sim.MsgMeta
	envelope
	RspTo uint64
	Addr  uint64
}

// Meta implements sim.Msg.
func (m *WriteACK) Meta() *sim.MsgMeta { return &m.MsgMeta }
