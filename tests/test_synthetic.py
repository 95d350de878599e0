import numpy as np
import pytest

from tilepipe.synthetic import (
    DEFAULT_COUNTS,
    SCENE_KINDS,
    SceneSpec,
    class_color,
    generate_scene,
    render_frame,
)


def spec(kind="sparse", width=1280, height=720, frame_count=5, **kwargs):
    return SceneSpec(kind, width, height, frame_count, **kwargs)


class TestSceneSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            spec(kind="wavy")

    def test_rejects_tiny_frames(self):
        with pytest.raises(ValueError):
            spec(width=32)

    def test_rejects_empty_scenes(self):
        with pytest.raises(ValueError):
            spec(frame_count=0)
        with pytest.raises(ValueError):
            spec(object_count=0)


class TestGenerate:
    def test_deterministic(self):
        assert generate_scene(spec()) == generate_scene(spec())

    def test_seed_changes_scene(self):
        assert generate_scene(spec(seed=0)) != generate_scene(spec(seed=1))

    def test_every_frame_has_ground_truth(self):
        scene = generate_scene(spec(frame_count=7))
        assert sorted(scene) == list(range(7))
        assert all(len(objs) == DEFAULT_COUNTS["sparse"] for objs in scene.values())

    def test_object_count_override(self):
        scene = generate_scene(spec(kind="dense", object_count=3))
        assert all(len(objs) == 3 for objs in scene.values())

    def test_objects_stay_in_frame(self):
        for kind in SCENE_KINDS:
            scene = generate_scene(spec(kind=kind, frame_count=60))
            for objs in scene.values():
                for obj in objs:
                    assert obj.rect.x >= 0 and obj.rect.y >= 0
                    assert obj.rect.x2 <= 1280 and obj.rect.y2 <= 720

    def test_objects_move(self):
        scene = generate_scene(spec(frame_count=3))
        first, second = scene[0], scene[1]
        assert any(a.rect != b.rect for a, b in zip(first, second))

    def test_object_ids_stable_across_frames(self):
        scene = generate_scene(spec(frame_count=4))
        ids = [[o.object_id for o in scene[t]] for t in range(4)]
        assert all(frame_ids == ids[0] for frame_ids in ids)

    def test_small_kind_sizes(self):
        # at 4K the small family sits in the 30-46 px band, which a single
        # downscaled 608 tile cannot resolve
        scene = generate_scene(spec(kind="small", width=3840, height=2160))
        for obj in scene[0]:
            assert 29 <= obj.rect.w <= 46
            assert 29 <= obj.rect.h <= 46

    def test_mixed_kind_has_both_sizes(self):
        scene = generate_scene(spec(kind="mixed", width=3840, height=2160))
        sides = sorted(max(o.rect.w, o.rect.h) for o in scene[0])
        assert sides[0] <= 46
        assert sides[-1] >= 79

    def test_straddle_crosses_horizontal_thirds(self):
        scene = generate_scene(spec(kind="straddle"))
        borders = (720 // 3, 720 * 2 // 3)
        for obj in scene[0]:
            assert obj.class_label == "person"
            assert any(obj.rect.y < b < obj.rect.y2 for b in borders)


class TestRender:
    def test_deterministic_bytes(self):
        scene = generate_scene(spec())
        a = render_frame(1280, 720, scene[0])
        b = render_frame(1280, 720, scene[0])
        assert a.tobytes() == b.tobytes()

    def test_background_and_object_colors(self):
        scene = generate_scene(spec(object_count=1))
        obj = scene[0][0]
        canvas = render_frame(1280, 720, scene[0])
        assert canvas.shape == (720, 1280, 3)
        assert canvas.dtype == np.uint8
        cx = round(obj.rect.x + obj.rect.w / 2)
        cy = round(obj.rect.y + obj.rect.h / 2)
        assert tuple(canvas[cy, cx]) == class_color(obj.class_label)
        assert tuple(canvas[0, 0]) == (24, 24, 24) or any(
            o.rect.x <= 0 < o.rect.x2 and o.rect.y <= 0 < o.rect.y2 for o in scene[0]
        )

    def test_unknown_class_color_is_stable(self):
        assert class_color("zebra") == class_color("zebra")
        assert class_color("zebra") != class_color("horse")
