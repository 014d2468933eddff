// Package snapio is the versioned binary container used to persist serving
// snapshots. A file is
//
//	header (64 B) | section 0 | pad | section 1 | pad | … | table | footer (32 B)
//
// Header (64 bytes, all integers little-endian):
//
//	[0:8)   magic "LCSNAP01"
//	[8:12)  format version (u32)
//	[12:16) flags (u32, reserved, 0)
//	[16:24) generation / epoch tag (u64)
//	[24:32) sampling seed (u64)
//	[32:64) reserved (zero)
//
// Each section is the raw little-endian image of one typed array, padded so
// every section starts on a 64-byte boundary — wide enough for any scalar
// alignment and for cache-line-friendly mmap slicing. The section table (one
// 32-byte entry per section: id u32, elemSize u32, offset u64, byte length
// u64, xxhash64 u64) sits at the END of the file, located by a fixed 32-byte
// footer:
//
//	[0:8)   table offset (u64)
//	[8:12)  section count (u32)
//	[12:16) format version (u32, must match header)
//	[16:24) xxhash64 of header‖table (u64)
//	[24:32) magic "LCSNAP01"
//
// Putting the table at the end is what lets Write stream: sections are
// emitted as they are produced, each hashed on the fly, and nothing is
// buffered or seeked back to. Load reads the footer, validates the table
// against its checksum, and then every section is available as a zero-copy
// slice of the mapping.
package snapio

import (
	"encoding/binary"
	"io"
	"os"
	"unsafe"

	"repro/internal/reproerr"
)

// Magic identifies a snapshot container (and doubles as its trailing magic).
const Magic = "LCSNAP01"

// Version is the current format version. Readers reject files whose header
// version differs: the format carries raw struct images, so there is no
// cross-version migration — rebuild and re-save instead.
const Version uint32 = 2

const (
	headerSize  = 64
	entrySize   = 32
	footerSize  = 32
	sectionAlig = 64

	// maxSections bounds the table so a corrupt count cannot drive a huge
	// allocation before checksums are verified.
	maxSections = 4096
)

// Header is the decoded fixed header of a container.
type Header struct {
	Version    uint32
	Generation uint64
	Seed       uint64
}

// Section is one decoded table entry plus its payload bytes. Data aliases
// the file mapping (or the heap copy) — callers must treat it as read-only.
type Section struct {
	ID       uint32
	ElemSize uint32
	Sum      uint64
	Data     []byte
}

// Elems returns the number of elements in the section.
func (s Section) Elems() int { return len(s.Data) / int(s.ElemSize) }

var zeroPad [sectionAlig]byte

// Writer streams a container to an io.Writer. Sections are written in call
// order; Finish appends the table and footer. Writer never buffers section
// payloads and never seeks.
type Writer struct {
	w       io.Writer
	off     uint64
	entries []Section // Data unused; lengths tracked via entry meta
	lens    []uint64
	offs    []uint64
	hdr     [headerSize]byte
	hdrSum  xxDigest // running hash of header‖table
	secSum  xxDigest
	err     error
}

// NewWriter writes the container header and returns a Writer. generation and
// seed are the snapshot's epoch tag and sampling seed, echoed back by Load.
func NewWriter(w io.Writer, generation, seed uint64) (*Writer, error) {
	const op = "snapio.NewWriter"
	sw := &Writer{w: w}
	copy(sw.hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(sw.hdr[8:12], Version)
	binary.LittleEndian.PutUint32(sw.hdr[12:16], 0)
	binary.LittleEndian.PutUint64(sw.hdr[16:24], generation)
	binary.LittleEndian.PutUint64(sw.hdr[24:32], seed)
	sw.hdrSum.reset()
	sw.hdrSum.write(sw.hdr[:])
	if _, err := w.Write(sw.hdr[:]); err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindUnknown, "write header: %w", err)
	}
	sw.off = headerSize
	return sw, nil
}

func (sw *Writer) pad() error {
	rem := int(sw.off % sectionAlig)
	if rem == 0 {
		return nil
	}
	n := sectionAlig - rem
	if _, err := sw.w.Write(zeroPad[:n]); err != nil {
		return err
	}
	sw.off += uint64(n)
	return nil
}

// Section writes one section. elemSize must be 1, 4, or 8 and every chunk's
// length must be a multiple of it; chunks are concatenated on the wire, so a
// logically contiguous array may be supplied piecewise (per-part node lists,
// per-part shortcut lists) without assembling an intermediate buffer.
func (sw *Writer) Section(id uint32, elemSize uint32, chunks ...[]byte) error {
	const op = "snapio.Writer.Section"
	if sw.err != nil {
		return sw.err
	}
	if elemSize != 1 && elemSize != 4 && elemSize != 8 {
		return reproerr.Invalid(op, "section %d: element size %d not in {1,4,8}", id, elemSize)
	}
	for _, e := range sw.entries {
		if e.ID == id {
			return reproerr.Invalid(op, "duplicate section id %d", id)
		}
	}
	if err := sw.pad(); err != nil {
		sw.err = reproerr.Errorf(op, reproerr.KindUnknown, "write pad: %w", err)
		return sw.err
	}
	off := sw.off
	var total uint64
	sw.secSum.reset()
	for _, c := range chunks {
		if len(c)%int(elemSize) != 0 {
			return reproerr.Invalid(op, "section %d: chunk length %d not a multiple of element size %d",
				id, len(c), elemSize)
		}
		if len(c) == 0 {
			continue
		}
		sw.secSum.write(c)
		if _, err := sw.w.Write(c); err != nil {
			sw.err = reproerr.Errorf(op, reproerr.KindUnknown, "write section %d: %w", id, err)
			return sw.err
		}
		total += uint64(len(c))
	}
	sw.off += total
	sw.entries = append(sw.entries, Section{ID: id, ElemSize: elemSize, Sum: sw.secSum.sum()})
	sw.offs = append(sw.offs, off)
	sw.lens = append(sw.lens, total)
	return nil
}

// Finish writes the section table and footer. The Writer is unusable
// afterwards. Returns the total container size in bytes.
func (sw *Writer) Finish() (int64, error) {
	const op = "snapio.Writer.Finish"
	if sw.err != nil {
		return 0, sw.err
	}
	if err := sw.pad(); err != nil {
		return 0, reproerr.Errorf(op, reproerr.KindUnknown, "write pad: %w", err)
	}
	tableOff := sw.off
	table := make([]byte, len(sw.entries)*entrySize)
	for i, e := range sw.entries {
		rec := table[i*entrySize:]
		binary.LittleEndian.PutUint32(rec[0:4], e.ID)
		binary.LittleEndian.PutUint32(rec[4:8], e.ElemSize)
		binary.LittleEndian.PutUint64(rec[8:16], sw.offs[i])
		binary.LittleEndian.PutUint64(rec[16:24], sw.lens[i])
		binary.LittleEndian.PutUint64(rec[24:32], e.Sum)
	}
	sw.hdrSum.write(table)
	if _, err := sw.w.Write(table); err != nil {
		return 0, reproerr.Errorf(op, reproerr.KindUnknown, "write table: %w", err)
	}
	sw.off += uint64(len(table))

	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:8], tableOff)
	binary.LittleEndian.PutUint32(foot[8:12], uint32(len(sw.entries)))
	binary.LittleEndian.PutUint32(foot[12:16], Version)
	binary.LittleEndian.PutUint64(foot[16:24], sw.hdrSum.sum())
	copy(foot[24:32], Magic)
	if _, err := sw.w.Write(foot[:]); err != nil {
		return 0, reproerr.Errorf(op, reproerr.KindUnknown, "write footer: %w", err)
	}
	sw.off += footerSize
	sw.err = reproerr.Invalid(op, "writer already finished")
	return int64(sw.off), nil
}

// File is an opened container: the raw bytes (mmap or heap) plus the decoded
// header and section table. Section payloads alias data.
type File struct {
	hdr      Header
	sections []Section
	data     []byte
	mapped   bool // data is an mmap; Close must munmap
}

// Header returns the decoded fixed header.
func (f *File) Header() Header { return f.hdr }

// Mapped reports whether the file bytes are a read-only memory mapping
// (true) or a heap copy (false).
func (f *File) Mapped() bool { return f.mapped }

// Size returns the total byte size of the file image (the mapping length on
// the mmap path, the heap copy's length otherwise; 0 after Close).
func (f *File) Size() int { return len(f.data) }

// Sections returns the decoded section table in file order. Shared — do not
// mutate.
func (f *File) Sections() []Section { return f.sections }

// Section returns the section with the given id, or an error if absent.
func (f *File) Section(id uint32) (Section, error) {
	const op = "snapio.File.Section"
	for _, s := range f.sections {
		if s.ID == id {
			return s, nil
		}
	}
	return Section{}, reproerr.Errorf(op, reproerr.KindCorrupt, "missing section %d", id)
}

// Verify re-hashes every section payload against its table checksum. The
// header‖table checksum was already verified during parse.
func (f *File) Verify() error {
	const op = "snapio.File.Verify"
	for _, s := range f.sections {
		if got := xxSum64(s.Data); got != s.Sum {
			return reproerr.Errorf(op, reproerr.KindCorrupt,
				"section %d: checksum mismatch (file %#x, computed %#x)", s.ID, s.Sum, got)
		}
	}
	return nil
}

// Close releases the mapping when the file was opened via mmap; a heap-backed
// or already-closed File is a no-op. After Close every Section view obtained
// from a mapped File is invalid.
func (f *File) Close() error {
	if f == nil || !f.mapped || f.data == nil {
		return nil
	}
	data := f.data
	f.data = nil
	f.sections = nil
	f.mapped = false
	return munmap(data)
}

// Open maps path read-only and parses the container. When the platform has
// no mmap support it falls back to reading into the heap (Mapped reports
// which happened). The returned File's sections alias the mapping; keep the
// File open as long as any view is in use.
func Open(path string) (*File, error) {
	const op = "snapio.Open"
	data, mapped, err := mmapFile(path)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindUnknown, "map %s: %w", path, err)
	}
	f, perr := parse(data)
	if perr != nil {
		if mapped {
			_ = munmap(data)
		}
		return nil, perr
	}
	f.mapped = mapped
	return f, nil
}

// ReadFrom reads an entire container from r into the heap and parses it.
// The backing allocation is []uint64 so section payloads are 8-aligned, as
// the zero-copy views require.
func ReadFrom(r io.Reader) (*File, error) {
	const op = "snapio.ReadFrom"
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindUnknown, "read container: %w", err)
	}
	data := alignedCopy(raw)
	return parse(data)
}

// OpenHeap reads path fully into the heap and parses it — the portable
// no-mmap load path.
func OpenHeap(path string) (*File, error) {
	const op = "snapio.OpenHeap"
	fh, err := os.Open(path)
	if err != nil {
		return nil, reproerr.Errorf(op, reproerr.KindUnknown, "open %s: %w", path, err)
	}
	defer fh.Close()
	f, rerr := ReadFrom(fh)
	if rerr != nil {
		return nil, rerr
	}
	return f, nil
}

// alignedCopy copies raw into a []uint64-backed byte slice so every 64-byte
// aligned file offset is at least 8-aligned in memory (the zero-copy views
// require element alignment; a plain make([]byte) only guarantees 1).
func alignedCopy(raw []byte) []byte {
	words := make([]uint64, (len(raw)+7)/8)
	if len(words) == 0 {
		return nil
	}
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))[:len(raw)]
	copy(data, raw)
	return data
}

func parse(data []byte) (*File, error) {
	const op = "snapio.parse"
	corrupt := func(format string, args ...any) error {
		return reproerr.Errorf(op, reproerr.KindCorrupt, format, args...)
	}
	if len(data) < headerSize+footerSize {
		return nil, corrupt("container too small: %d bytes", len(data))
	}
	if string(data[0:8]) != Magic {
		return nil, corrupt("bad magic %q", data[0:8])
	}
	ver := binary.LittleEndian.Uint32(data[8:12])
	if ver != Version {
		return nil, corrupt("unsupported format version %d (reader supports %d)", ver, Version)
	}
	foot := data[len(data)-footerSize:]
	if string(foot[24:32]) != Magic {
		return nil, corrupt("bad footer magic %q (truncated file?)", foot[24:32])
	}
	if fv := binary.LittleEndian.Uint32(foot[12:16]); fv != ver {
		return nil, corrupt("footer version %d disagrees with header version %d", fv, ver)
	}
	tableOff := binary.LittleEndian.Uint64(foot[0:8])
	count := binary.LittleEndian.Uint32(foot[8:12])
	if count > maxSections {
		return nil, corrupt("section count %d exceeds limit %d", count, maxSections)
	}
	tableLen := uint64(count) * entrySize
	end := uint64(len(data) - footerSize)
	if tableOff < headerSize || tableOff > end || end-tableOff != tableLen {
		return nil, corrupt("section table [%d,+%d) does not fit container of %d bytes",
			tableOff, tableLen, len(data))
	}
	table := data[tableOff : tableOff+tableLen]

	var d xxDigest
	d.reset()
	d.write(data[:headerSize])
	d.write(table)
	if got, want := d.sum(), binary.LittleEndian.Uint64(foot[16:24]); got != want {
		return nil, corrupt("header/table checksum mismatch (file %#x, computed %#x)", want, got)
	}

	f := &File{
		hdr: Header{
			Version:    ver,
			Generation: binary.LittleEndian.Uint64(data[16:24]),
			Seed:       binary.LittleEndian.Uint64(data[24:32]),
		},
		sections: make([]Section, count),
		data:     data,
	}
	seen := make(map[uint32]bool, count)
	for i := range f.sections {
		rec := table[i*entrySize:]
		id := binary.LittleEndian.Uint32(rec[0:4])
		elem := binary.LittleEndian.Uint32(rec[4:8])
		off := binary.LittleEndian.Uint64(rec[8:16])
		length := binary.LittleEndian.Uint64(rec[16:24])
		if seen[id] {
			return nil, corrupt("duplicate section id %d", id)
		}
		seen[id] = true
		if elem != 1 && elem != 4 && elem != 8 {
			return nil, corrupt("section %d: element size %d not in {1,4,8}", id, elem)
		}
		if off%sectionAlig != 0 {
			return nil, corrupt("section %d: offset %d not %d-byte aligned", id, off, sectionAlig)
		}
		if length%uint64(elem) != 0 {
			return nil, corrupt("section %d: length %d not a multiple of element size %d", id, length, elem)
		}
		if off < headerSize || off > tableOff || tableOff-off < length {
			return nil, corrupt("section %d: [%d,+%d) outside payload region [%d,%d)",
				id, off, length, headerSize, tableOff)
		}
		f.sections[i] = Section{
			ID:       id,
			ElemSize: elem,
			Sum:      binary.LittleEndian.Uint64(rec[24:32]),
			Data:     data[off : off+length : off+length],
		}
	}
	return f, nil
}
