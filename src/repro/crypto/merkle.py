"""Merkle trees with inclusion proofs.

Used in two places:

- block bodies commit to their transaction list via a Merkle root, so light
  verification of "this log entry is in block B" needs only a logarithmic
  proof;
- the hybrid storage backend ([9] in the paper) periodically anchors a
  Merkle root over database rows on the chain, and its auditor checks rows
  against anchors with these proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.crypto.hashing import hash_pair, sha256_hex

_LEAF_PREFIX = "leaf|"
_EMPTY_ROOT = sha256_hex(b"merkle-empty")


def leaf_hash(data: str) -> str:
    """Domain-separated leaf hash (prevents leaf/interior confusion)."""
    return sha256_hex((_LEAF_PREFIX + data).encode())


def tree_depth(size: int) -> int:
    """Path length of every proof in a tree over ``size`` leaves."""
    if size <= 1:
        return 0
    return (size - 1).bit_length()


@dataclass(frozen=True)
class MerkleProof:
    """Sibling path from a leaf to the root.

    ``path`` entries are ``(sibling_hash, sibling_is_right)``.
    """

    leaf_index: int
    leaf: str
    path: tuple[tuple[str, bool], ...]

    def verify(self, root: str, tree_size: int | None = None) -> bool:
        """Recompute the root from the leaf along the path and compare.

        ``leaf_index`` is bound into verification: at every level the
        sibling side must match the index's parity, and the index must fit
        the path length.  Odd levels duplicate their tail, so without this
        binding the last leaf of an odd-length level verifies at two
        distinct indexes (its own and the phantom duplicate's) — receipts
        could then claim a position that does not exist.  Passing
        ``tree_size`` additionally pins the path length to the tree's
        depth and rejects indexes past the real leaf count.
        """
        if self.leaf_index < 0 or self.leaf_index >= 1 << len(self.path):
            return False
        if tree_size is not None:
            if tree_size <= 0 or self.leaf_index >= tree_size:
                return False
            if len(self.path) != tree_depth(tree_size):
                return False
        current = leaf_hash(self.leaf)
        position = self.leaf_index
        for sibling, sibling_is_right in self.path:
            if sibling_is_right != (position % 2 == 0):
                return False
            if sibling_is_right:
                current = hash_pair(current, sibling)
            else:
                current = hash_pair(sibling, current)
            position //= 2
        return current == root

    def to_dict(self) -> dict:
        return {
            "leaf_index": self.leaf_index,
            "leaf": self.leaf,
            "path": [[sibling, is_right] for sibling, is_right in self.path],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MerkleProof":
        path = tuple((sibling, bool(is_right)) for sibling, is_right in data["path"])
        if not all(isinstance(digest, str) for digest in (data["leaf"], *(s for s, _ in path))):
            raise TypeError("leaf and siblings must be strings")  # verify() hashes them
        return cls(leaf_index=int(data["leaf_index"]), leaf=data["leaf"], path=path)


class MerkleTree:
    """Binary Merkle tree over string items (odd levels duplicate the tail)."""

    def __init__(self, items: list[str]) -> None:
        self.items = list(items)
        self._levels: list[list[str]] = []
        self._build()

    def _build(self) -> None:
        if not self.items:
            self._levels = [[_EMPTY_ROOT]]
            return
        level = [leaf_hash(item) for item in self.items]
        self._levels = [level]
        while len(level) > 1:
            if len(level) % 2 == 1:
                level = level + [level[-1]]
                self._levels[-1] = level
            level = [hash_pair(level[i], level[i + 1]) for i in range(0, len(level), 2)]
            self._levels.append(level)

    @property
    def root(self) -> str:
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self.items)

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self.items):
            raise ValidationError(f"leaf index out of range: {index}")
        path: list[tuple[str, bool]] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                sibling_is_right = True
            else:
                sibling_index = position - 1
                sibling_is_right = False
            sibling = level[sibling_index] if sibling_index < len(level) else level[position]
            path.append((sibling, sibling_is_right))
            position //= 2
        return MerkleProof(leaf_index=index, leaf=self.items[index], path=tuple(path))

    @classmethod
    def root_of(cls, items: list[str]) -> str:
        """The Merkle root of ``items`` without keeping the tree.

        Block validation recomputes body roots on every node, so this
        avoids the per-level list bookkeeping :class:`MerkleTree` keeps for
        proofs; the folding (odd levels duplicate the tail) is identical.
        """
        if not items:
            return _EMPTY_ROOT
        level = [leaf_hash(item) for item in items]
        while len(level) > 1:
            if len(level) % 2 == 1:
                level.append(level[-1])
            level = [hash_pair(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        return level[0]
