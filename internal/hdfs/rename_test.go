package hdfs

import (
	"bytes"
	"fmt"
	"testing"
)

func TestRenameMovesMetadata(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	data := []byte("abcdefghijklmnop")
	d.PutInstant("/a", data, nil)
	if err := d.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("/a") {
		t.Fatal("old name still present")
	}
	got, err := d.Contents("/b")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("renamed contents = %q, %v", got, err)
	}
	f, _ := d.Lookup("/b")
	if f.Name != "/b" {
		t.Fatalf("file.Name = %q", f.Name)
	}
	for _, b := range f.Blocks {
		if b.File != "/b" {
			t.Fatalf("block.File = %q", b.File)
		}
	}
}

func TestRenameErrors(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	d.PutInstant("/a", []byte("x"), nil)
	d.PutInstant("/b", []byte("y"), nil)
	if err := d.Rename("/missing", "/c"); err == nil {
		t.Fatal("rename of missing file succeeded")
	}
	if err := d.Rename("/a", "/b"); err == nil {
		t.Fatal("rename onto existing file succeeded")
	}
}

func TestRenamePrefix(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	d.PutInstant("/out.__uplus/part-00000", []byte("a"), nil)
	d.PutInstant("/out.__uplus/part-00001", []byte("b"), nil)
	d.PutInstant("/other", []byte("c"), nil)
	n, err := d.RenamePrefix("/out.__uplus", "/out")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("moved %d files", n)
	}
	if !d.Exists("/out/part-00000") || !d.Exists("/out/part-00001") || !d.Exists("/other") {
		t.Fatalf("post-rename listing = %v", d.List())
	}
}

func TestRenamePrefixConflict(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	d.PutInstant("/tmp/x", []byte("a"), nil)
	d.PutInstant("/dst/x", []byte("b"), nil)
	if _, err := d.RenamePrefix("/tmp", "/dst"); err == nil {
		t.Fatal("conflicting prefix rename succeeded")
	}
}

// RenamePrefix moves matching files in sorted name order and stops at the
// first collision, so exactly the names sorted before the colliding one have
// moved. Enough files that map iteration order would show through.
func TestRenamePrefixSortedOrderAndCollision(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	for i := 0; i < 20; i++ {
		d.PutInstant(fmt.Sprintf("/tmp/f%02d", i), []byte{byte(i)}, nil)
	}
	d.PutInstant("/dst/f10", []byte("taken"), nil)
	d.PutInstant("/tmpx", []byte("not under /tmp/"), nil)
	n, err := d.RenamePrefix("/tmp/", "/dst/")
	if err == nil || n != 0 {
		t.Fatalf("RenamePrefix onto a taken name = %d, %v; want 0 and an error", n, err)
	}
	for i := 0; i < 20; i++ {
		moved := d.Exists(fmt.Sprintf("/dst/f%02d", i)) && !d.Exists(fmt.Sprintf("/tmp/f%02d", i))
		if want := i < 10; moved != want {
			t.Fatalf("f%02d moved = %v, want %v; listing %v", i, moved, want, d.List())
		}
	}
	if got, _ := d.Contents("/dst/f10"); string(got) != "taken" {
		t.Fatalf("collision overwrote the existing file: %q", got)
	}
	if !d.Exists("/tmpx") {
		t.Fatal("a sibling outside the prefix directory moved")
	}
}

func TestDeletePrefix(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	d.PutInstant("/tmp/a", []byte("a"), nil)
	d.PutInstant("/tmp/b", []byte("b"), nil)
	d.PutInstant("/keep", []byte("c"), nil)
	if n := d.DeletePrefix("/tmp"); n != 2 {
		t.Fatalf("deleted %d", n)
	}
	if got := d.List(); len(got) != 1 || got[0] != "/keep" {
		t.Fatalf("List = %v", got)
	}
	if n := d.DeletePrefix("/nothing"); n != 0 {
		t.Fatalf("deleted %d from empty prefix", n)
	}
}

func TestSingleBlockReadIsZeroCopy(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 1<<20, 3, 1)
	data := []byte("zero copy block")
	f, _ := d.PutInstant("/z", data, nil)
	var got []byte
	d.ReadAll("/z", c.Workers()[0], func(b []byte, err error) { got = b })
	eng.Run()
	if &got[0] != &f.Blocks[0].Data[0] {
		t.Fatal("single-block full read copied the data")
	}
}

// Blocks alias the caller's slice, so files written from one backing buffer
// share it; Append must copy rather than grow a block in place, or it would
// rewrite the bytes of every other file on that buffer.
func TestAppendDoesNotWriteThroughSharedBuffer(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	buf := []byte("0123456789abcdef")
	d.PutInstant("/long", buf[:8], nil)  // uncapped: cap reaches the end of buf
	d.PutInstant("/short", buf[:4], nil) // a prefix of /long's bytes
	d.PutInstant("/tail", buf[4:8], nil)
	var wrote bool
	d.Write("/written", buf[:6], c.Master(), func(_ *File, err error) { wrote = err == nil })
	eng.Run()
	if !wrote {
		t.Fatal("Write from the shared buffer failed")
	}
	for _, name := range []string{"/short", "/long", "/written"} {
		if _, err := d.Append(name, []byte("XYZ"), nil); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{
		"/long": "01234567XYZ", "/short": "0123XYZ", "/tail": "4567", "/written": "012345XYZ",
	}
	for name, w := range want {
		if got, _ := d.Contents(name); string(got) != w {
			t.Fatalf("%s = %q, want %q", name, got, w)
		}
	}
	if string(buf) != "0123456789abcdef" {
		t.Fatalf("shared buffer mutated to %q", buf)
	}
}
