import numpy as np
import pytest

from arfdx.imaging import FormatError, ImageEmbedding, embeddings_to_bytes, load_embeddings, write_embeddings


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
        assert np.array_equal(loaded["img-a"].vector, records[0].vector)

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
