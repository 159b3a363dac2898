import struct

import numpy as np
import pytest

from arfdx.imaging import FormatError, ImageEmbedding, ImagingError, embeddings_to_bytes, load_embeddings, write_embeddings


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.bin"
        records = [
            ImageEmbedding("img-a", np.arange(8, dtype=np.float32)),
            ImageEmbedding("img-b", np.ones(8, dtype=np.float32)),
        ]
        write_embeddings(path, records)
        loaded = load_embeddings(path)
        assert set(loaded) == {"img-a", "img-b"}
        assert np.array_equal(loaded["img-a"], records[0].vector)

    def test_width_mismatch_rejected(self):
        records = [
            ImageEmbedding("a", np.zeros(8, dtype=np.float32)),
            ImageEmbedding("b", np.zeros(4, dtype=np.float32)),
        ]
        with pytest.raises(FormatError, match="width"):
            embeddings_to_bytes(records)

    def test_duplicate_id_rejected(self):
        records = [
            ImageEmbedding("a", np.zeros(4, dtype=np.float32)),
            ImageEmbedding("a", np.ones(4, dtype=np.float32)),
        ]
        with pytest.raises(FormatError, match="duplicate"):
            embeddings_to_bytes(records)

    def test_id_that_is_not_utf8_rejected_naming_the_record(self, tmp_path):
        path = tmp_path / "emb.bin"
        records = [ImageEmbedding(image_id, np.zeros(4, dtype=np.float32)) for image_id in ("img-a", "img-b")]
        path.write_bytes(embeddings_to_bytes(records).replace(b"img-b", b"img\xff\xfe"))
        with pytest.raises(FormatError, match="embedding record 2 of 2 has an id that is not UTF-8"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, [])
        assert load_embeddings(path) == {}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"NOTEMB00" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, [ImageEmbedding("a", np.zeros(4, dtype=np.float32))])
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_embeddings(path)

    def test_duplicate_id_inside_file_rejected(self, tmp_path):
        import struct

        record = struct.pack("<H", 1) + b"a" + np.zeros(2, dtype="<f4").tobytes()
        path = tmp_path / "emb.bin"
        path.write_bytes(b"ARFEMB1\x00" + struct.pack("<II", 2, 2) + record + record)
        with pytest.raises(FormatError, match="duplicate"):
            load_embeddings(path)

    def test_non_finite_entry_names_the_first_bad_id(self, tmp_path):
        def record(image_id, values):
            return struct.pack("<H", len(image_id)) + image_id + np.asarray(values, dtype="<f4").tobytes()

        path = tmp_path / "emb.bin"
        path.write_bytes(
            b"ARFEMB1\x00" + struct.pack("<II", 3, 2)
            + record(b"ok", [0, 1]) + record(b"bad", [np.nan, 1]) + record(b"worse", [np.inf, 0])
        )
        with pytest.raises(ImagingError, match="'bad' has non-finite"):
            load_embeddings(path)

    def test_zero_width_header_with_records_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"ARFEMB1\x00" + struct.pack("<II", 1, 0) + struct.pack("<H", 1) + b"a")
        with pytest.raises(ImagingError, match="width 0"):
            load_embeddings(path)

    def test_vectors_are_rows_of_one_matrix(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, [ImageEmbedding(f"img-{i}", np.full(3, i, dtype=np.float32)) for i in range(4)])
        loaded = load_embeddings(path)
        assert [v.dtype for v in loaded.values()] == [np.float32] * 4
        assert len({id(v.base) for v in loaded.values()}) == 1
        assert [v.tolist() for v in loaded.values()] == [[float(i)] * 3 for i in range(4)]
