"""Seeded synthetic inputs: a knowledge Blocks-JSON, a standards Blocks-JSON and a config.

The documents extend the fixtures' vocabulary and layout: every page opens
with a heading (font 16 against a body median of 11), body blocks cite
``Standard Pembelajaran`` codes, and ``Contoh`` / ``Latih Diri`` blocks open
keyword units. The standards document lists one unique ``d.d.d`` code per
block. The same seed and shape always give byte-identical files, and the
seed reaches the pipeline only through these files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

_OBJECTS = (
    "integer", "nombor positif dan nombor negatif", "pecahan", "perpuluhan", "nombor nisbah",
    "faktor dan gandaan", "kuasa dua dan punca kuasa dua", "kuasa tiga dan punca kuasa tiga",
    "nisbah dan kadar", "kadaran", "ungkapan algebra", "persamaan linear", "ketaksamaan linear",
    "garis dan sudut", "poligon asas", "perimeter dan luas", "set dan gambar rajah Venn",
    "data dan carta palang", "teorem Pythagoras", "peratus",
)
_VERBS = (
    "Mengenal", "Memerihalkan", "Mewakilkan", "Menambah dan menolak", "Mendarab dan membahagi",
    "Menyelesaikan masalah yang melibatkan", "Membandingkan dan menyusun", "Menentukan",
    "Menukar", "Menganggar", "Mengira", "Mengaplikasikan hukum operasi ke atas",
)
_QUALIFIERS = (
    "menggunakan garis nombor", "dalam situasi sebenar", "berdasarkan hukum operasi",
    "dengan pelbagai kaedah", "secara mental", "menggunakan kalkulator",
    "dalam konteks kehidupan harian", "mengikut tertib menaik", "dengan contoh berangka",
)
_TITLES = (
    "Nombor Nisbah", "Faktor dan Gandaan", "Kuasa Dua dan Punca Kuasa Dua", "Nisbah, Kadar dan Kadaran",
    "Ungkapan Algebra", "Persamaan Linear", "Ketaksamaan Linear", "Garis dan Sudut", "Poligon Asas",
    "Perimeter dan Luas", "Pengenalan Set", "Pengendalian Data", "Teorem Pythagoras",
)
_SENTENCES = (
    "Integer ialah kumpulan nombor bulat positif, nombor bulat negatif dan sifar.",
    "Garis nombor menunjukkan nombor tersusun mengikut tertib menaik dari kiri ke kanan.",
    "Untuk menambah nombor positif, gerak ke kanan pada garis nombor.",
    "Hasil darab dua integer negatif ialah integer positif.",
    "Hukum kalis agihan membolehkan pengiraan dilakukan dengan lebih cekap.",
    "Pecahan boleh ditukar kepada perpuluhan dengan membahagi pengangka dengan penyebut.",
    "Nombor nisbah ialah nombor yang boleh ditulis dalam bentuk pecahan.",
    "Nisbah membandingkan dua kuantiti yang mempunyai unit yang sama.",
    "Kadar membandingkan dua kuantiti yang mempunyai unit yang berbeza.",
    "Ungkapan algebra mengandungi pemboleh ubah, pekali dan pemalar.",
    "Persamaan linear dalam satu pemboleh ubah mempunyai satu penyelesaian.",
    "Punca kuasa dua bagi suatu nombor ialah nombor yang apabila didarab dengan dirinya memberikan nombor itu.",
    "Perimeter ialah jumlah panjang sisi yang mengelilingi suatu bentuk.",
    "Luas segi empat tepat ialah hasil darab panjang dengan lebar.",
    "Operasi dalam tanda kurung diselesaikan terlebih dahulu.",
    "Sifar bukan nombor positif dan bukan nombor negatif.",
)
_NUMBERS = ("-8", "-7", "-5", "-3", "-2", "0", "1", "3", "4", "6", "9", "12", "15")


@dataclass(frozen=True)
class Shape:
    """Size knobs for one workload's inputs."""

    pages: int
    blocks_per_page: int
    chapters: int
    sections: int
    items: int

    @property
    def standards(self) -> int:
        return self.chapters * self.sections * self.items


def standard_codes(shape: Shape) -> list[str]:
    return [
        f"{c}.{s}.{k}"
        for c in range(1, shape.chapters + 1)
        for s in range(1, shape.sections + 1)
        for k in range(1, shape.items + 1)
    ]


def _description(rng: random.Random) -> str:
    return f"{rng.choice(_VERBS)} {rng.choice(_OBJECTS)} {rng.choice(_QUALIFIERS)}."


def _paragraph(rng: random.Random, sentences: int) -> str:
    return " ".join(rng.choice(_SENTENCES) for _ in range(sentences))


def _block(text: str, y: float, font_size: float, bold: bool = False) -> dict:
    return {
        "text": text,
        "bbox": [72.0, y, 520.0, y + 20.0],
        "font_size": font_size,
        "font_name": "Helvetica-Bold" if bold else "Helvetica",
    }


def _document(doc_id: str, role: str, pages: list[list[dict]]) -> dict:
    return {
        "doc_id": doc_id,
        "role": role,
        "pages": [{"page": i + 1, "blocks": blocks} for i, blocks in enumerate(pages)],
    }


def _standards_doc(codes: list[str], descriptions: list[str], per_page: int = 30) -> dict:
    pages: list[list[dict]] = []
    for start in range(0, len(codes), per_page):
        blocks = []
        if start == 0:
            blocks.append(_block(
                "Rancangan Pengajaran Tahunan: Matematik Tingkatan 1", 50.0, 14.0, bold=True,
            ))
        for j, (code, desc) in enumerate(zip(codes[start:start + per_page], descriptions[start:start + per_page])):
            blocks.append(_block(f"{code} {desc}", 90.0 + 24.0 * j, 11.0))
        pages.append(blocks)
    return _document("rpt-bench", "standards", pages)


def _knowledge_doc(rng: random.Random, shape: Shape, codes: list[str], descriptions: list[str],
                   max_chars: int) -> dict:
    pages: list[list[dict]] = []
    example = 0
    for p in range(shape.pages):
        blocks = [_block(f"{p // 10 + 1}.{p % 10 + 1} {rng.choice(_TITLES)}", 60.0, 16.0, bold=True)]
        # Every page holds the same mix of block kinds, so the input size varies little between seeds.
        kinds = [k % 4 for k in range(shape.blocks_per_page - 1)]
        rng.shuffle(kinds)
        while len(blocks) < shape.blocks_per_page:
            y = 60.0 + 30.0 * len(blocks)
            kind = kinds[len(blocks) - 1]
            if kind == 0:
                i = rng.randrange(len(codes))
                text = f"Standard Pembelajaran {codes[i]}: {descriptions[i]} {_paragraph(rng, 2)}"
            elif kind == 1:
                example += 1
                a, b = rng.choice(_NUMBERS), rng.choice(_NUMBERS)
                text = (f"Contoh {example}: Hitung {a} x ({b} + 3). "
                        f"{_paragraph(rng, 1)} Jawapan ditulis dalam bentuk paling ringkas.")
            elif kind == 2:
                text = f"Latih Diri {example + 1}: {rng.choice(_VERBS)} {rng.choice(_OBJECTS)} bagi {rng.choice(_NUMBERS)}."
            else:
                text = _paragraph(rng, rng.randint(2, 4))
            if max_chars - 1 <= len(text) <= max_chars:
                # chunk_recursive emits the blank line before such a block as a chunk of its
                # own, which qgen index rejects; see oracle.whitespace_chunk_defect.
                continue
            blocks.append(_block(text, y, 11.0))
        pages.append(blocks)
    return _document("nota-bench", "knowledge", pages)


def _dump(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, indent=1, sort_keys=True) + "\n").encode("utf-8")


def write_inputs(directory: Path, shape: Shape, seed: int, config: dict) -> list[str]:
    """Write the two documents and ``config.json`` into ``directory``.

    ``config`` holds every section except ``paths``, which points at the
    documents written here. Knowledge blocks of ``recursive_max_chars`` - 1
    or ``recursive_max_chars`` characters are redrawn. Returns the standard
    codes in document order.
    """
    rng = random.Random(seed)
    codes = standard_codes(shape)
    descriptions = [_description(rng) for _ in codes]
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "rpt.blocks.json").write_bytes(_dump(_standards_doc(codes, descriptions)))
    knowledge = _knowledge_doc(rng, shape, codes, descriptions, config["chunking"]["recursive_max_chars"])
    (directory / "nota.blocks.json").write_bytes(_dump(knowledge))
    full = {"paths": {"knowledge_blocks": "nota.blocks.json", "standards_blocks": "rpt.blocks.json"}, **config}
    (directory / "config.json").write_bytes(_dump(full))
    return codes
